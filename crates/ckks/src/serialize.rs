//! Dependency-free binary serialization for keys, plaintexts, and
//! ciphertexts.
//!
//! The cloud deployment the paper targets (Figure 7) ships ciphertexts and
//! evaluation keys between client, host, and board; this module provides
//! the wire format. It is a simple, versioned, little-endian layout with
//! explicit magic bytes — deliberately hand-rolled so the public API
//! carries no serde dependency.
//!
//! Every kind of object implements [`Object`] once: its [`Tag`], its
//! encoded length, an encoder and a decoder. The free codec functions below
//! call those impls, and the operand decoders share their parts.
//! Polynomials always carry their modulus chain, so the receiver checks
//! degree, moduli and representation against its own context.
//!
//! # Decoding is total on untrusted input
//!
//! Every [`Object::decode`] treats its input as hostile wire bytes: length
//! fields are bounded by the bytes actually present before any allocation,
//! scales must be finite and `>= 2` (as parameter validation requires),
//! residues must be canonical, and every failure is a structured
//! [`CkksError`] — never a panic or abort. The `adversarial_decode`
//! proptest suite drives random corruption through every impl. Every field
//! is read through [`Reader`], which the wire decoders share, and the lints
//! denied below make that totality a compile-time contract.
//!
//! # Every word moves once, in bulk
//!
//! Receiving, a `PolyView` borrows the frame; its modulus values are
//! compared with the context's, whose `Modulus` entries are then borrowed,
//! and each limb goes from the frame into a polynomial from the thread's
//! recycler (`RnsPoly::for_overwrite`; a key's is fresh) through
//! `decode_le_words`: a branch-free loop that copies and ORs `w >= p` over
//! the limb, so a residue is **validated while it is copied**, with no
//! early exit for hostile input to steer. Sending, `encode_le_words`
//! appends the words after one `reserve` of [`Object::encoded_len`]. No
//! allocation is sized by a wire field beyond a ciphertext's component
//! count, which is at most 8.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::panic_in_result_fn
)]

use std::collections::{BTreeMap, HashMap};

use heax_math::poly::{Representation, RnsPoly};
use heax_math::sampling::{expand_uniform_into, EXPAND_SEED_LEN};
use heax_math::word::{encode_le_words, le_words_eq, Modulus};
use heax_math::MathError;

use crate::ciphertext::{Ciphertext, Plaintext, SeededCiphertext};
use crate::context::CkksContext;
use crate::galois::galois_permutation;
use crate::keys::{GaloisKeys, KeyPoly, KeySwitchKey, PublicKey, RelinKey, SecretKey};
use crate::reader::{Malformed, Reader};
use crate::CkksError;

/// Format magic: "HEAX".
const MAGIC: [u8; 4] = *b"HEAX";
/// Format version.
const VERSION: u8 = 1;
/// Bytes of the object header: magic (4) + version (1) + tag (1).
const HEADER_LEN: usize = 6;

/// Object tags: byte 5 of every object. Tag 1 is reserved: a polynomial
/// is only ever nested inside another object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Tag {
    /// A [`Plaintext`].
    Plaintext = 2,
    /// A [`Ciphertext`].
    Ciphertext = 3,
    /// A [`SecretKey`].
    SecretKey = 4,
    /// A [`PublicKey`].
    PublicKey = 5,
    /// A [`KeySwitchKey`] or [`RelinKey`]; also the [`GaloisKeys`] container.
    KeySwitchKey = 6,
    /// A [`SeededCiphertext`].
    SeededCiphertext = 7,
}

impl Tag {
    /// Every tag, in value order.
    pub const ALL: [Tag; 6] = [
        Tag::Plaintext,
        Tag::Ciphertext,
        Tag::SecretKey,
        Tag::PublicKey,
        Tag::KeySwitchKey,
        Tag::SeededCiphertext,
    ];
}

/// One kind of wire object, with one encoding.
pub trait Object: Sized {
    /// The tag in the object's header.
    const TAG: Tag;

    /// Bytes [`Object::encode_append`] appends.
    fn encoded_len(&self) -> usize;

    /// Appends the object to what `buf` already holds (a frame header,
    /// earlier replies) after one `reserve` of [`Object::encoded_len`].
    fn encode_append(&self, buf: &mut Vec<u8>);

    /// Decodes exactly one object from `buf`, validated against `ctx`.
    ///
    /// # Errors
    ///
    /// [`CkksError::InvalidParameters`] on malformed input or context
    /// mismatch; [`CkksError::Math`] for a ciphertext component outside
    /// NTT form.
    fn decode(buf: &[u8], ctx: &CkksContext) -> Result<Self, CkksError>;
}

/// Encoded length of a polynomial of `residues` residues at degree `n`:
/// `n`(8) + repr(1) + moduli(8 + 8·residues) + data(8 + 8·residues·n).
const fn poly_len(n: usize, residues: usize) -> usize {
    8 + 1 + (8 + 8 * residues) + (8 + 8 * residues * n)
}

fn rns_len(poly: &RnsPoly) -> usize {
    poly_len(poly.n(), poly.num_residues())
}

/// `obj` in a buffer of its own.
fn encode(obj: &impl Object) -> Vec<u8> {
    let mut buf = Vec::new();
    obj.encode_append(&mut buf);
    buf
}

/// A little-endian writer appending to where the bytes are going.
struct Writer<'b> {
    buf: &'b mut Vec<u8>,
}

impl<'b> Writer<'b> {
    /// Reserves `obj`'s whole encoding in `buf` and writes its header.
    fn object<T: Object>(obj: &T, buf: &'b mut Vec<u8>) -> Self {
        buf.reserve(obj.encoded_len());
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(T::TAG as u8);
        Writer { buf }
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A polynomial's fields before its words: `n`, the representation,
    /// the moduli and the word count.
    fn poly_head(&mut self, n: usize, ntt: bool, moduli: impl ExactSizeIterator<Item = u64>) {
        let residues = moduli.len();
        self.u64(n as u64);
        self.buf.push(u8::from(ntt));
        self.u64(residues as u64);
        moduli.for_each(|m| self.u64(m));
        self.u64((residues * n) as u64);
    }

    fn poly(&mut self, poly: &RnsPoly) {
        let ntt = poly.representation() == Representation::Ntt;
        self.poly_head(poly.n(), ntt, poly.moduli().iter().map(Modulus::value));
        encode_le_words(poly.data(), self.buf);
    }

    /// A key component in [`Writer::poly`]'s layout: NTT form, the whole
    /// chain, each packed word widened to eight bytes.
    fn key_poly(&mut self, poly: KeyPoly<'_>) {
        self.poly_head(poly.residue(0).len(), true, poly.moduli().iter().copied());
        for j in 0..poly.num_residues() {
            poly.residue(j).encode_le(self.buf);
        }
    }
}

/// A reader over `buf` past its object header: the magic, the version
/// and the tag `expect`.
fn read_header(buf: &[u8], expect: Tag) -> Result<Reader<'_>, Malformed> {
    let mut r = Reader::new(buf);
    if r.take(4)? != MAGIC {
        return Err(Malformed("bad magic"));
    }
    if r.u8()? != VERSION {
        return Err(Malformed("unsupported version"));
    }
    let tag = r.u8()?;
    match Tag::ALL.into_iter().find(|&t| t as u8 == tag) {
        None => Err(Malformed("unknown tag")),
        Some(tag) if tag != expect => Err(Malformed("unexpected object tag")),
        Some(_) => Ok(r),
    }
}

/// Reads a scale field: finite and `>= 2`, as [`crate::params::CkksParams::new`]
/// requires, so no NaN/∞/subnormal scale reaches rescale or multiply.
fn scale(r: &mut Reader<'_>) -> Result<f64, Malformed> {
    let scale = r.f64()?;
    if !(scale.is_finite() && scale >= 2.0) {
        return Err(Malformed("scale must be finite and >= 2"));
    }
    Ok(scale)
}

/// One polynomial's metadata, bounds-checked, its words left in `r`'s
/// buffer.
fn poly<'a>(r: &mut Reader<'a>) -> Result<PolyView<'a>, Malformed> {
    let n = r.u64()? as usize;
    let repr = match r.u8()? {
        0 => Representation::Coefficient,
        1 => Representation::Ntt,
        _ => return Err(Malformed("bad representation tag")),
    };
    let moduli = r.words()?;
    let words = r.words()?;
    let expect = (moduli.len() / 8)
        .checked_mul(n)
        .and_then(|count| count.checked_mul(8))
        .ok_or(Malformed("data length overflow"))?;
    if words.len() != expect {
        return Err(Malformed("data shorter than moduli require"));
    }
    Ok(PolyView {
        n,
        repr,
        moduli,
        words,
    })
}

/// One serialized polynomial, its metadata bounds-checked and its moduli
/// and words borrowed from the frame until they are decoded — once,
/// against the context's own moduli, into a polynomial of its own.
#[derive(Clone, Debug)]
struct PolyView<'a> {
    n: usize,
    repr: Representation,
    moduli: &'a [u8],
    words: &'a [u8],
}

impl PolyView<'_> {
    fn num_residues(&self) -> usize {
        self.moduli.len() / 8
    }

    /// Whether the wire's modulus values are `moduli`'s.
    fn moduli_are(&self, moduli: &[Modulus]) -> bool {
        let (wire, _) = self.moduli.as_chunks();
        let wire = wire.iter().map(|w| u64::from_le_bytes(*w));
        wire.eq(moduli.iter().map(Modulus::value))
    }

    /// Decodes a polynomial of a ciphertext or plaintext at `level`.
    fn decode_at_level(&self, ctx: &CkksContext, level: usize) -> Result<RnsPoly, CkksError> {
        if self.n != ctx.n() {
            return Err(Malformed("ring degree mismatch").into());
        }
        if level > ctx.max_level() || self.num_residues() != level + 1 {
            return Err(Malformed("level mismatch").into());
        }
        self.decode_words(ctx.level_moduli(level), RnsPoly::for_overwrite)
    }

    /// Decodes one component of a ciphertext at `level`; NTT form is how
    /// they travel.
    fn decode_component(&self, ctx: &CkksContext, level: usize) -> Result<RnsPoly, CkksError> {
        let poly = self.decode_at_level(ctx, level)?;
        (self.repr == Representation::Ntt)
            .then_some(poly)
            .ok_or(CkksError::Math(MathError::RepresentationMismatch))
    }

    /// Decodes a key polynomial, which spans the whole chain, into a fresh
    /// buffer: a key outlives the traffic the recycler sizes itself to.
    fn decode_full_chain(&self, ctx: &CkksContext) -> Result<RnsPoly, CkksError> {
        if self.n != ctx.n() || self.num_residues() != ctx.moduli().len() {
            return Err(Malformed("full-chain shape mismatch").into());
        }
        self.decode_words(ctx.moduli(), RnsPoly::zero)
    }

    /// Checks a key-switching key's component: the whole chain, the
    /// context's moduli, NTT form.
    fn check_key_shape(&self, ctx: &CkksContext) -> Result<(), Malformed> {
        if self.n != ctx.n() || self.num_residues() != ctx.moduli().len() {
            return Err(Malformed("full-chain shape mismatch"));
        }
        if !self.moduli_are(ctx.moduli()) {
            return Err(Malformed("modulus chain mismatch"));
        }
        if self.repr != Representation::Ntt {
            return Err(Malformed("key component not in NTT form"));
        }
        Ok(())
    }

    /// The one pass over a polynomial's words on the receive path: the
    /// wire's moduli must be `moduli`, whose precomputed entries are then
    /// borrowed; each limb is copied into the polynomial `make` shapes and
    /// checked canonical in the same bulk loop.
    fn decode_words(
        &self,
        moduli: &[Modulus],
        make: fn(usize, &[Modulus], Representation) -> RnsPoly,
    ) -> Result<RnsPoly, CkksError> {
        if !self.moduli_are(moduli) {
            return Err(Malformed("modulus chain mismatch").into());
        }
        let mut dst = make(self.n, moduli, self.repr);
        let limbs = self.words.chunks_exact(8 * self.n);
        let mut canonical = true;
        for ((m, src), limb) in moduli
            .iter()
            .zip(limbs)
            .zip(dst.data_mut().chunks_exact_mut(self.n))
        {
            canonical &= m.decode_le_words(src, limb);
        }
        if !canonical {
            return Err(Malformed("non-canonical residue").into());
        }
        Ok(dst)
    }

    /// Whether decoding this view would reproduce `poly` word for word:
    /// one bulk compare, no copy.
    fn matches(&self, poly: &RnsPoly) -> bool {
        self.n == poly.n()
            && self.repr == poly.representation()
            && self.moduli_are(poly.moduli())
            && le_words_eq(self.words, poly.data())
    }
}

impl Object for Plaintext {
    const TAG: Tag = Tag::Plaintext;

    fn encoded_len(&self) -> usize {
        HEADER_LEN + 8 + 8 + rns_len(self.poly())
    }

    fn encode_append(&self, buf: &mut Vec<u8>) {
        let mut w = Writer::object(self, buf);
        w.u64(self.level() as u64);
        w.u64(self.scale().to_bits());
        w.poly(self.poly());
    }

    fn decode(buf: &[u8], ctx: &CkksContext) -> Result<Self, CkksError> {
        let mut r = read_header(buf, Self::TAG)?;
        let level = r.u64()? as usize;
        let scale = scale(&mut r)?;
        let view = poly(&mut r)?;
        r.finish()?;
        let poly = view.decode_at_level(ctx, level)?;
        Ok(Plaintext::from_parts(poly, level, scale))
    }
}

impl Object for Ciphertext {
    const TAG: Tag = Tag::Ciphertext;

    fn encoded_len(&self) -> usize {
        serialized_ciphertext_bytes(self.n(), self.level() + 1, self.size())
    }

    fn encode_append(&self, buf: &mut Vec<u8>) {
        let mut w = Writer::object(self, buf);
        w.u64(self.level() as u64);
        w.u64(self.scale().to_bits());
        w.u64(self.size() as u64);
        for c in self.components() {
            w.poly(c);
        }
    }

    fn decode(buf: &[u8], ctx: &CkksContext) -> Result<Self, CkksError> {
        CiphertextView::parse(buf)?.to_ciphertext(ctx)
    }
}

/// The `b` component and the 32-byte seed in place of the uniform `a`:
/// about half the bytes of a [`Ciphertext`].
impl Object for SeededCiphertext {
    const TAG: Tag = Tag::SeededCiphertext;

    fn encoded_len(&self) -> usize {
        HEADER_LEN + 8 + 8 + EXPAND_SEED_LEN + rns_len(self.b())
    }

    fn encode_append(&self, buf: &mut Vec<u8>) {
        let mut w = Writer::object(self, buf);
        w.u64(self.level() as u64);
        w.u64(self.scale().to_bits());
        w.buf.extend_from_slice(self.seed());
        w.poly(self.b());
    }

    fn decode(buf: &[u8], ctx: &CkksContext) -> Result<Self, CkksError> {
        let view = SeededView::parse(buf)?;
        let b = view.b.decode_component(ctx, view.level)?;
        SeededCiphertext::from_parts(b, view.seed, view.level, view.scale)
    }
}

/// The parsed, not yet decoded, fields of a seeded ciphertext.
struct SeededView<'a> {
    level: usize,
    scale: f64,
    seed: [u8; EXPAND_SEED_LEN],
    b: PolyView<'a>,
}

impl<'a> SeededView<'a> {
    fn parse(buf: &'a [u8]) -> Result<Self, CkksError> {
        let mut r = read_header(buf, Tag::SeededCiphertext)?;
        let level = r.u64()? as usize;
        let scale = scale(&mut r)?;
        let seed = r.array()?;
        let b = poly(&mut r)?;
        r.finish()?;
        Ok(Self {
            level,
            scale,
            seed,
            b,
        })
    }
}

impl Object for SecretKey {
    const TAG: Tag = Tag::SecretKey;

    fn encoded_len(&self) -> usize {
        HEADER_LEN + rns_len(self.poly())
    }

    fn encode_append(&self, buf: &mut Vec<u8>) {
        Writer::object(self, buf).poly(self.poly());
    }

    fn decode(buf: &[u8], ctx: &CkksContext) -> Result<Self, CkksError> {
        let mut r = read_header(buf, Self::TAG)?;
        let poly = poly(&mut r)?.decode_full_chain(ctx)?;
        r.finish()?;
        Ok(SecretKey { poly })
    }
}

impl Object for PublicKey {
    const TAG: Tag = Tag::PublicKey;

    fn encoded_len(&self) -> usize {
        HEADER_LEN + rns_len(self.b()) + rns_len(self.a())
    }

    fn encode_append(&self, buf: &mut Vec<u8>) {
        let mut w = Writer::object(self, buf);
        w.poly(self.b());
        w.poly(self.a());
    }

    fn decode(buf: &[u8], ctx: &CkksContext) -> Result<Self, CkksError> {
        let mut r = read_header(buf, Self::TAG)?;
        let b = poly(&mut r)?.decode_full_chain(ctx)?;
        let a = poly(&mut r)?.decode_full_chain(ctx)?;
        r.finish()?;
        Ok(PublicKey { b, a })
    }
}

/// Each component travels as a full-chain NTT-form polynomial of 8-byte
/// words. Decoding checks every component's shape before the key is
/// allocated, then validates and packs each word in one pass.
impl Object for KeySwitchKey {
    const TAG: Tag = Tag::KeySwitchKey;

    fn encoded_len(&self) -> usize {
        let (b, _) = self.component(0);
        let poly = poly_len(b.residue(0).len(), b.num_residues());
        HEADER_LEN + 8 + 2 * self.decomp_len() * poly
    }

    fn encode_append(&self, buf: &mut Vec<u8>) {
        let mut w = Writer::object(self, buf);
        w.u64(self.decomp_len() as u64);
        for i in 0..self.decomp_len() {
            let (b, a) = self.component(i);
            w.key_poly(b);
            w.key_poly(a);
        }
    }

    fn decode(buf: &[u8], ctx: &CkksContext) -> Result<Self, CkksError> {
        let mut r = read_header(buf, Self::TAG)?;
        let d = r.u64()? as usize;
        if d != ctx.params().k() {
            return Err(Malformed("decomposition length mismatch").into());
        }
        let mut views = Vec::with_capacity(2 * d);
        for _ in 0..2 * d {
            let view = poly(&mut r)?;
            view.check_key_shape(ctx)?;
            views.push(view);
        }
        r.finish()?;
        let mut key = KeySwitchKey::zeroed(ctx, d);
        let rows = key.rows_mut();
        let mut canonical = true;
        let limbs = views
            .iter()
            .flat_map(|v| ctx.moduli().iter().zip(v.words.chunks_exact(8 * ctx.n())));
        for (row, (m, src)) in limbs.enumerate() {
            canonical &= rows.decode_le_row(row, src, m);
        }
        if !canonical {
            return Err(Malformed("non-canonical residue").into());
        }
        Ok(key)
    }
}

impl Object for RelinKey {
    const TAG: Tag = KeySwitchKey::TAG;

    fn encoded_len(&self) -> usize {
        self.ksk.encoded_len()
    }

    fn encode_append(&self, buf: &mut Vec<u8>) {
        self.ksk.encode_append(buf);
    }

    fn decode(buf: &[u8], ctx: &CkksContext) -> Result<Self, CkksError> {
        let ksk = KeySwitchKey::decode(buf, ctx)?;
        Ok(RelinKey { ksk })
    }
}

/// Strictly increasing Galois elements, each followed by its key's length
/// and key (permutation tables are regenerated on load): a key set has one
/// encoding, so a decoded container re-encodes to its input.
impl Object for GaloisKeys {
    /// The container reuses the key-switching key's tag.
    const TAG: Tag = Tag::KeySwitchKey;

    fn encoded_len(&self) -> usize {
        let records = self.keys.values().map(|key| 8 + 8 + key.encoded_len());
        HEADER_LEN + 8 + records.sum::<usize>()
    }

    /// Each key goes straight into the container after its own length.
    fn encode_append(&self, buf: &mut Vec<u8>) {
        let mut w = Writer::object(self, buf);
        w.u64(self.keys.len() as u64);
        for (&elt, key) in &self.keys {
            w.u64(elt as u64);
            w.u64(key.encoded_len() as u64);
            key.encode_append(w.buf);
        }
    }

    fn decode(buf: &[u8], ctx: &CkksContext) -> Result<Self, CkksError> {
        let mut r = read_header(buf, Self::TAG)?;
        let count = r.u64()? as usize;
        if count > 4096 {
            return Err(Malformed("implausible Galois key count").into());
        }
        let mut keys = BTreeMap::new();
        let mut permutations = HashMap::new();
        let mut floor = 0;
        for _ in 0..count {
            let elt = r.u64()? as usize;
            if elt.is_multiple_of(2) || elt >= 2 * ctx.n() {
                return Err(Malformed("invalid Galois element").into());
            }
            if elt < floor {
                return Err(Malformed("Galois elements not strictly increasing").into());
            }
            floor = elt + 1;
            let len = r.u64()? as usize;
            let key = KeySwitchKey::decode(r.take(len)?, ctx)?;
            permutations.insert(elt, galois_permutation(elt, ctx.n()));
            keys.insert(elt, key);
        }
        r.finish()?;
        Ok(GaloisKeys { keys, permutations })
    }
}

/// Serializes a ciphertext.
pub fn serialize_ciphertext(ct: &Ciphertext) -> Vec<u8> {
    encode(ct)
}

/// Deserializes a ciphertext, validating against the context.
///
/// # Errors
///
/// As [`Object::decode`].
pub fn deserialize_ciphertext(buf: &[u8], ctx: &CkksContext) -> Result<Ciphertext, CkksError> {
    Ciphertext::decode(buf, ctx)
}

/// Serializes a seeded ciphertext.
pub fn serialize_seeded_ciphertext(ct: &SeededCiphertext) -> Vec<u8> {
    encode(ct)
}

/// Serializes a relinearization key.
pub fn serialize_relin_key(rlk: &RelinKey) -> Vec<u8> {
    encode(rlk)
}

/// Serializes Galois keys.
pub fn serialize_galois_keys(gks: &GaloisKeys) -> Vec<u8> {
    encode(gks)
}

/// [`Object::encoded_len`] of a `size`-component ciphertext with `limbs`
/// residues at ring degree `n`.
pub fn serialized_ciphertext_bytes(n: usize, limbs: usize, size: usize) -> usize {
    HEADER_LEN + 8 + 8 + 8 + size * poly_len(n, limbs)
}

/// A zero-copy view over a serialized ciphertext: parsing validates every
/// length field but copies **no limb words**, so a receive path rejects
/// garbage before paying for a word of polynomial data, then materializes
/// with [`CiphertextView::to_ciphertext`] in one validate-while-copy pass.
///
/// ```
/// use heax_ckks::serialize::{serialize_ciphertext, CiphertextView};
/// use heax_ckks::{CkksContext, CkksEncoder, CkksParams, Encryptor, PublicKey, SecretKey};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let chain = heax_math::primes::generate_prime_chain(&[40, 40, 40, 41], 64)?;
/// let ctx = CkksContext::new(CkksParams::new(64, chain, (1u64 << 32) as f64)?)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let sk = SecretKey::generate(&ctx, &mut rng);
/// let pk = PublicKey::generate(&ctx, &sk, &mut rng);
/// let enc = CkksEncoder::new(&ctx);
/// let pt = enc.encode_real(&[1.5], ctx.params().scale(), ctx.max_level())?;
/// let ct = Encryptor::new(&ctx, &pk).encrypt(&pt, &mut rng)?;
/// let wire_bytes = serialize_ciphertext(&ct);
///
/// // Parse borrows: metadata is validated, limb words stay in the buffer.
/// let view = CiphertextView::parse(&wire_bytes)?;
/// // Materialize decodes + canonicity-checks each word exactly once.
/// assert_eq!(view.to_ciphertext(&ctx)?, ct);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CiphertextView<'a> {
    level: usize,
    scale: f64,
    components: Vec<PolyView<'a>>,
}

impl<'a> CiphertextView<'a> {
    /// Parses a borrowed view from serialized ciphertext bytes; no limb
    /// word is read or copied.
    ///
    /// # Errors
    ///
    /// [`CkksError::InvalidParameters`] on malformed input.
    pub fn parse(buf: &'a [u8]) -> Result<Self, CkksError> {
        let mut r = read_header(buf, Tag::Ciphertext)?;
        let level = r.u64()? as usize;
        let scale = scale(&mut r)?;
        let size = r.u64()? as usize;
        if !(2..=8).contains(&size) {
            return Err(Malformed("implausible component count").into());
        }
        let mut components = Vec::with_capacity(size);
        for _ in 0..size {
            components.push(poly(&mut r)?);
        }
        r.finish()?;
        Ok(Self {
            level,
            scale,
            components,
        })
    }

    /// Materializes the view into an owned, context-validated
    /// [`Ciphertext`], each word decoded, checked and copied once.
    ///
    /// # Errors
    ///
    /// As [`Object::decode`].
    pub fn to_ciphertext(&self, ctx: &CkksContext) -> Result<Ciphertext, CkksError> {
        let polys = self
            .components
            .iter()
            .map(|view| view.decode_component(ctx, self.level))
            .collect::<Result<_, _>>()?;
        Ok(Ciphertext {
            polys,
            level: self.level,
            scale: self.scale,
        })
    }
}

/// Decodes an inline wire operand: a full ciphertext (tag 3) or a seeded
/// fresh encryption (tag 7, expanded deterministically), and whether it
/// arrived seeded, which the transfer model prices at about half the bytes.
///
/// # Errors
///
/// As [`Object::decode`].
pub fn deserialize_operand(buf: &[u8], ctx: &CkksContext) -> Result<(Ciphertext, bool), CkksError> {
    let (ct, seed) = deserialize_operand_with_seed(buf, ctx)?;
    Ok((ct, seed.is_some()))
}

/// [`deserialize_operand`], returning the seed itself when the operand
/// arrived seeded.
///
/// # Errors
///
/// As [`Object::decode`].
pub fn deserialize_operand_with_seed(
    buf: &[u8],
    ctx: &CkksContext,
) -> Result<(Ciphertext, Option<[u8; EXPAND_SEED_LEN]>), CkksError> {
    // Peek the object tag (byte 6) without committing to either decoder.
    if buf.get(5) != Some(&(Tag::SeededCiphertext as u8)) {
        return Ok((Ciphertext::decode(buf, ctx)?, None));
    }
    let view = SeededView::parse(buf)?;
    let b = view.b.decode_component(ctx, view.level)?;
    let mut a = RnsPoly::for_overwrite(b.n(), b.moduli(), Representation::Ntt);
    expand_uniform_into(&view.seed, &mut a);
    let ct = Ciphertext {
        polys: vec![b, a],
        level: view.level,
        scale: view.scale,
    };
    Ok((ct, Some(view.seed)))
}

/// Whether `buf` is a well-formed seeded operand that
/// [`deserialize_operand_with_seed`] would decode to exactly `ct`, given that
/// `ct` was itself decoded from an operand carrying `seed`: same seed,
/// level and scale, and a `b` polynomial equal to the decoded one — one
/// bulk compare of the incoming bytes, no expansion of the seed. A server
/// uses it to decode the shared input of a fan-out once.
pub fn seeded_operand_matches(buf: &[u8], seed: &[u8; EXPAND_SEED_LEN], ct: &Ciphertext) -> bool {
    let Ok(view) = SeededView::parse(buf) else {
        return false;
    };
    view.seed == *seed
        && view.level == ct.level()
        && view.scale.to_bits() == ct.scale().to_bits()
        && ct.components().first().is_some_and(|b| view.b.matches(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::small;
    use crate::encoder::CkksEncoder;
    use crate::encrypt::{encrypt_symmetric, encrypt_symmetric_seeded, Decryptor, Encryptor};
    use crate::eval::Evaluator;
    use crate::params::{CkksParams, ParamSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Rig {
        ctx: CkksContext,
        sk: SecretKey,
        pk: PublicKey,
        rlk: RelinKey,
        ct: Ciphertext,
        pt: Plaintext,
    }

    fn rig() -> Rig {
        let ctx = CkksContext::new(small()).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
        let enc = CkksEncoder::new(&ctx);
        let pt = enc
            .encode_real(&[1.5, -2.0], ctx.params().scale(), ctx.max_level())
            .unwrap();
        let ct = Encryptor::new(&ctx, &pk).encrypt(&pt, &mut rng).unwrap();
        Rig {
            ctx,
            sk,
            pk,
            rlk,
            ct,
            pt,
        }
    }

    #[test]
    fn ciphertext_roundtrip_preserves_decryption() {
        let r = rig();
        let bytes = serialize_ciphertext(&r.ct);
        let back = deserialize_ciphertext(&bytes, &r.ctx).unwrap();
        assert_eq!(back, r.ct);
        let dec = Decryptor::new(&r.ctx, &r.sk);
        let enc = CkksEncoder::new(&r.ctx);
        let vals = enc.decode_real(&dec.decrypt(&back).unwrap()).unwrap();
        assert!((vals[0] - 1.5).abs() < 1e-3);
    }

    #[test]
    fn plaintext_roundtrip() {
        let r = rig();
        let bytes = encode(&r.pt);
        let back = Plaintext::decode(&bytes, &r.ctx).unwrap();
        assert_eq!(back, r.pt);
    }

    #[test]
    fn key_roundtrips() {
        let r = rig();
        let sk2 = SecretKey::decode(&encode(&r.sk), &r.ctx).unwrap();
        assert_eq!(sk2, r.sk);
        let pk2 = PublicKey::decode(&encode(&r.pk), &r.ctx).unwrap();
        assert_eq!(pk2, r.pk);
        let rlk2 = RelinKey::decode(&encode(&r.rlk), &r.ctx).unwrap();
        assert_eq!(rlk2, r.rlk);
        let ksk2 = KeySwitchKey::decode(&encode(r.rlk.ksk()), &r.ctx).unwrap();
        assert_eq!(&ksk2, r.rlk.ksk());
    }

    #[test]
    fn galois_keys_roundtrip_and_still_rotate() {
        let ctx = CkksContext::new(small()).unwrap();
        let mut rng = StdRng::seed_from_u64(88);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let gks = GaloisKeys::generate(&ctx, &sk, &[1, -2], &mut rng);
        let back = GaloisKeys::decode(&encode(&gks), &ctx).unwrap();
        assert_eq!(back.elements().count(), gks.elements().count());

        // The deserialized keys still rotate correctly.
        let enc = CkksEncoder::new(&ctx);
        let vals: Vec<f64> = (0..ctx.n() / 2).map(|i| i as f64).collect();
        let ct = Encryptor::new(&ctx, &pk)
            .encrypt(
                &enc.encode_real(&vals, ctx.params().scale(), ctx.max_level())
                    .unwrap(),
                &mut rng,
            )
            .unwrap();
        let eval = Evaluator::new(&ctx);
        let a = eval.rotate(&ct, 1, &gks).unwrap();
        let b = eval.rotate(&ct, 1, &back).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn corruption_detected() {
        let r = rig();
        let bytes = serialize_ciphertext(&r.ct);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(deserialize_ciphertext(&bad, &r.ctx).is_err());
        // Truncation.
        assert!(deserialize_ciphertext(&bytes[..bytes.len() - 3], &r.ctx).is_err());
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert!(deserialize_ciphertext(&long, &r.ctx).is_err());
        // Wrong object tag.
        let pt_bytes = encode(&r.pt);
        assert!(deserialize_ciphertext(&pt_bytes, &r.ctx).is_err());
        // Non-canonical residue: set a residue word above its modulus.
        let mut tampered = bytes;
        let len = tampered.len();
        tampered[len - 1] = 0xff;
        tampered[len - 2] = 0xff;
        assert!(deserialize_ciphertext(&tampered, &r.ctx).is_err());
    }

    /// Error frames carry this text to clients: the shared reader keeps it.
    #[test]
    fn truncated_and_trailing_input_text_is_pinned() {
        let r = rig();
        let bytes = serialize_ciphertext(&r.ct);
        let text = |b: &[u8]| deserialize_ciphertext(b, &r.ctx).unwrap_err().to_string();
        let malformed = "invalid parameters: malformed serialized data";
        assert_eq!(text(&bytes[..10]), format!("{malformed}: truncated"));
        let long = [&bytes[..], &[0]].concat();
        assert_eq!(text(&long), format!("{malformed}: trailing bytes"));
    }

    #[test]
    fn hostile_scale_rejected() {
        let r = rig();
        let bytes = serialize_ciphertext(&r.ct);
        // The scale field sits after magic(4) + version(1) + tag(1) +
        // level(8).
        let scale_off = 4 + 1 + 1 + 8;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, 1.5, -4.0] {
            let mut tampered = bytes.clone();
            tampered[scale_off..scale_off + 8].copy_from_slice(&bad.to_le_bytes());
            assert!(
                deserialize_ciphertext(&tampered, &r.ctx).is_err(),
                "scale {bad} must be rejected"
            );
        }
        let mut tampered = encode(&r.pt);
        tampered[scale_off..scale_off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(Plaintext::decode(&tampered, &r.ctx).is_err());
    }

    #[test]
    fn hostile_length_header_fails_before_allocating() {
        let r = rig();
        let bytes = serialize_ciphertext(&r.ct);
        // First words-length header (the moduli count of component 0):
        // header(6) + level(8) + scale(8) + size(8) + n(8) + repr(1).
        let words_off = 6 + 8 + 8 + 8 + 8 + 1;
        for huge in [u64::MAX, 1 << 40, 1 << 28] {
            let mut tampered = bytes.clone();
            tampered[words_off..words_off + 8].copy_from_slice(&huge.to_le_bytes());
            // Must error out (without attempting a giant reservation —
            // a 2 GiB with_capacity here would abort the test under a
            // memory cap rather than fail an assert).
            assert!(
                deserialize_ciphertext(&tampered, &r.ctx).is_err(),
                "length {huge} must be rejected"
            );
        }
    }

    #[test]
    fn encode_append_keeps_what_the_buffer_holds() {
        let r = rig();
        // A frame head, then two objects back to back.
        let mut buf = b"head".to_vec();
        r.ct.encode_append(&mut buf);
        r.pt.encode_append(&mut buf);
        let (head, rest) = buf.split_at(4);
        let (ct, pt) = rest.split_at(r.ct.encoded_len());
        assert_eq!(head, b"head");
        assert_eq!(deserialize_ciphertext(ct, &r.ctx).unwrap(), r.ct);
        assert_eq!(Plaintext::decode(pt, &r.ctx).unwrap(), r.pt);
    }

    #[test]
    fn cross_context_rejected() {
        let r = rig();
        // A context with different primes.
        let chain = heax_math::primes::generate_prime_chain(&[41, 41, 41, 42], 64).unwrap();
        let other = CkksContext::new(
            crate::params::CkksParams::new(64, chain, (1u64 << 32) as f64).unwrap(),
        )
        .unwrap();
        let bytes = serialize_ciphertext(&r.ct);
        assert!(deserialize_ciphertext(&bytes, &other).is_err());
    }

    /// Appends `obj` after a stray prefix; `encoded_len` must be what it
    /// wrote.
    fn assert_encoded_len<T: Object>(obj: &T) {
        let mut buf = vec![0xA5; 3];
        obj.encode_append(&mut buf);
        let what = std::any::type_name::<T>();
        assert_eq!(buf.len() - 3, obj.encoded_len(), "{what}");
    }

    /// Sizes are defined once, by `encoded_len`: for every object kind on
    /// the test ring and at Sets A and B, and for ciphertexts at Set C.
    #[test]
    fn encoded_len_is_the_encoded_length_of_every_object() {
        let sets = ParamSet::ALL.map(|set| CkksParams::from_set(set).unwrap());
        for (i, params) in [small()].into_iter().chain(sets).enumerate() {
            let ctx = CkksContext::new(params).unwrap();
            let mut rng = StdRng::seed_from_u64(0x5123 + i as u64);
            let sk = SecretKey::generate(&ctx, &mut rng);
            let (scale, top) = (ctx.params().scale(), ctx.max_level());
            let pt = CkksEncoder::new(&ctx)
                .encode_real(&[0.5, -1.0], scale, top)
                .unwrap();
            let ct = encrypt_symmetric(&ctx, &sk, &pt, &mut rng).unwrap();
            let eval = Evaluator::new(&ctx);
            let cts = [
                eval.multiply(&ct, &ct).unwrap(),
                eval.mod_switch_to_level(&ct, 0).unwrap(),
                ct,
            ];
            for ct in &cts {
                assert_encoded_len(ct);
                let limbs = ct.level() + 1;
                let closed = serialized_ciphertext_bytes(ct.n(), limbs, ct.size());
                assert_eq!(closed, ct.encoded_len());
            }
            assert_encoded_len(&pt);
            assert_encoded_len(&encrypt_symmetric_seeded(&ctx, &sk, &pt, &mut rng).unwrap());
            if ctx.n() == ParamSet::SetC.n() {
                continue;
            }
            assert_encoded_len(&sk);
            assert_encoded_len(&PublicKey::generate(&ctx, &sk, &mut rng));
            let rlk = RelinKey::generate(&ctx, &sk, &mut rng);
            assert_encoded_len(rlk.ksk());
            assert_encoded_len(&rlk);
            assert_encoded_len(&GaloisKeys::generate(&ctx, &sk, &[1, -2], &mut rng));
        }
    }

    #[test]
    fn seeded_ciphertext_roundtrip_halves_the_bytes() {
        let r = rig();
        let mut rng = StdRng::seed_from_u64(91);
        let enc = CkksEncoder::new(&r.ctx);
        let pt = enc
            .encode_real(&[2.25, -8.0], r.ctx.params().scale(), r.ctx.max_level())
            .unwrap();
        let seeded = encrypt_symmetric_seeded(&r.ctx, &r.sk, &pt, &mut rng).unwrap();
        let bytes = serialize_seeded_ciphertext(&seeded);
        let back = SeededCiphertext::decode(&bytes, &r.ctx).unwrap();
        assert_eq!(back, seeded);
        // The expansion of the decoded object matches the sender's.
        assert_eq!(back.expand(&r.ctx).unwrap(), seeded.expand(&r.ctx).unwrap());
        // Roughly half the full encoding (one poly + 32 bytes vs two).
        let full = serialize_ciphertext(&seeded.expand(&r.ctx).unwrap());
        assert!(bytes.len() * 2 < full.len() + 1024);
    }

    #[test]
    fn seeded_corruption_detected() {
        let r = rig();
        let mut rng = StdRng::seed_from_u64(92);
        let enc = CkksEncoder::new(&r.ctx);
        let pt = enc
            .encode_real(&[1.0], r.ctx.params().scale(), r.ctx.max_level())
            .unwrap();
        let seeded = encrypt_symmetric_seeded(&r.ctx, &r.sk, &pt, &mut rng).unwrap();
        let bytes = serialize_seeded_ciphertext(&seeded);
        let decode = |b: &[u8]| SeededCiphertext::decode(b, &r.ctx);
        assert!(decode(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        bad[5] = Tag::Ciphertext as u8;
        assert!(decode(&bad).is_err());
        let mut long = bytes;
        long.push(0);
        assert!(decode(&long).is_err());
    }

    #[test]
    fn ciphertext_view_is_faithful() {
        let r = rig();
        let bytes = serialize_ciphertext(&r.ct);
        let view = CiphertextView::parse(&bytes).unwrap();
        assert_eq!(view.to_ciphertext(&r.ctx).unwrap(), r.ct);
        // Its parts are the ciphertext's, field for field.
        assert_eq!((view.level, view.scale), (r.ct.level(), r.ct.scale()));
        assert_eq!(view.components.len(), r.ct.size());
        for (c, poly) in view.components.iter().zip(r.ct.components()) {
            assert!(c.matches(poly));
        }
    }

    #[test]
    fn ciphertext_view_rejects_garbage_without_touching_limbs() {
        let r = rig();
        let bytes = serialize_ciphertext(&r.ct);
        assert!(CiphertextView::parse(&bytes[..20]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(CiphertextView::parse(&bad_magic).is_err());
        // Hostile word-count header.
        let words_off = HEADER_LEN + 8 + 8 + 8 + 8 + 1;
        for huge in [u64::MAX, 1 << 40] {
            let mut t = bytes.clone();
            t[words_off..words_off + 8].copy_from_slice(&huge.to_le_bytes());
            assert!(CiphertextView::parse(&t).is_err());
        }
        // Non-canonical residues pass parse (limbs untouched) but fail
        // materialization.
        let mut tampered = bytes;
        let len = tampered.len();
        tampered[len - 1] = 0xff;
        tampered[len - 2] = 0xff;
        let view = CiphertextView::parse(&tampered).unwrap();
        assert!(view.to_ciphertext(&r.ctx).is_err());
    }

    #[test]
    fn operand_decoder_handles_both_encodings() {
        let r = rig();
        let (full, seeded_flag) =
            deserialize_operand(&serialize_ciphertext(&r.ct), &r.ctx).unwrap();
        assert_eq!(full, r.ct);
        assert!(!seeded_flag);

        let mut rng = StdRng::seed_from_u64(93);
        let enc = CkksEncoder::new(&r.ctx);
        let pt = enc
            .encode_real(&[5.0], r.ctx.params().scale(), r.ctx.max_level())
            .unwrap();
        let seeded = encrypt_symmetric_seeded(&r.ctx, &r.sk, &pt, &mut rng).unwrap();
        let (expanded, seeded_flag) =
            deserialize_operand(&serialize_seeded_ciphertext(&seeded), &r.ctx).unwrap();
        assert_eq!(expanded, seeded.expand(&r.ctx).unwrap());
        assert!(seeded_flag);

        assert!(deserialize_operand(&[], &r.ctx).is_err());
        assert!(deserialize_operand(&encode(&r.pt), &r.ctx).is_err());
    }
}
