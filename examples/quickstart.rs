//! Quickstart: encrypted arithmetic end to end on the paper's Set-A
//! parameters, plus the HEAX accelerator running the same operations
//! through the cycle-accurate hardware model.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use heax::accel::accel::HeaxAccelerator;
use heax::accel::perf::HeaxOp;
use heax::ckks::{
    CkksContext, CkksEncoder, CkksParams, Decryptor, Encryptor, Evaluator, GaloisKeys, ParamSet,
    PublicKey, RelinKey, SecretKey,
};
use heax::hw::board::Board;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parameters: Set-A (n = 4096, 109-bit modulus, 128-bit security).
    let ctx = CkksContext::new(CkksParams::from_set(ParamSet::SetA)?)?;
    println!(
        "Set-A: n = {}, k = {} ciphertext primes + special, scale = 2^{}",
        ctx.n(),
        ctx.params().k(),
        ctx.params().scale().log2() as u32
    );

    // 2. Keys (client side).
    let mut rng = StdRng::seed_from_u64(42);
    let sk = SecretKey::generate(&ctx, &mut rng);
    let pk = PublicKey::generate(&ctx, &sk, &mut rng);
    let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
    let gks = GaloisKeys::generate(&ctx, &sk, &[1], &mut rng);

    // 3. Encode + encrypt two vectors (client side).
    let encoder = CkksEncoder::new(&ctx);
    let scale = ctx.params().scale();
    let xs = [1.5, 2.0, -3.0, 0.25];
    let ys = [4.0, -1.0, 2.0, 8.0];
    let ct_x = Encryptor::new(&ctx, &pk)
        .encrypt(&encoder.encode_real(&xs, scale, ctx.max_level())?, &mut rng)?;
    let ct_y = Encryptor::new(&ctx, &pk)
        .encrypt(&encoder.encode_real(&ys, scale, ctx.max_level())?, &mut rng)?;

    // 4. Compute on ciphertexts (server side): x*y + rotate(x, 1).
    let eval = Evaluator::new(&ctx);
    let prod = eval.multiply_relin(&ct_x, &ct_y, &rlk)?;
    let rot = eval.rotate(&ct_x, 1, &gks)?;

    // 5. Decrypt + decode (client side).
    let dec = Decryptor::new(&ctx, &sk);
    let got_prod = encoder.decode_real(&dec.decrypt(&prod)?)?;
    let got_rot = encoder.decode_real(&dec.decrypt(&rot)?)?;
    println!("\nx ⊙ y  (want [6, -2, -6, 2]):   {:?}", &got_prod[..4]);
    println!("x << 1 (want [2, -3, 0.25, …]): {:?}", &got_rot[..3]);

    // 6. The same multiply+relinearize on the HEAX hardware model: its
    // evaluator runs every transform through the simulated modules, and
    // the architecture prices the op.
    let accel = HeaxAccelerator::new(&ctx, Board::stratix10())?;
    let hw_prod = accel.evaluator().multiply_relin(&ct_x, &ct_y, &rlk)?;
    let report = accel.report(HeaxOp::MultRelin, ct_x.level(), 1)?;
    assert_eq!(hw_prod, prod, "hardware result is bit-exact vs software");
    println!(
        "\nHEAX model ({}): MULT+ReLin every {} cycles = {:.1} us -> {:.0} ops/s",
        accel.board().chip(),
        report.interval_cycles,
        report.interval_us,
        1e6 / report.interval_us
    );
    println!("hardware output bit-exact vs software evaluator ✓");
    Ok(())
}
