//! Dependency-free binary serialization for keys, plaintexts, and
//! ciphertexts.
//!
//! The cloud deployment the paper targets (Figure 7) ships ciphertexts and
//! evaluation keys between client, host, and board; this module provides
//! the wire format. It is a simple, versioned, little-endian layout with
//! explicit magic bytes — deliberately hand-rolled so the public API
//! carries no serde dependency (see DESIGN.md).
//!
//! Polynomials always serialize their modulus chain so the receiver can
//! validate against its own context; deserialization checks degree,
//! moduli, and representation tags and fails loudly on any mismatch.
//!
//! # Decoding is total on untrusted input
//!
//! Every `deserialize_*` entry point treats its input as hostile wire
//! bytes: length fields are bounded by the bytes actually present before
//! any allocation (a 20-byte message can never reserve gigabytes),
//! scales must be finite and `>= 2` (mirroring parameter validation, so
//! a NaN or subnormal scale can't corrupt downstream rescale/multiply
//! arithmetic), residues must be canonical, and every failure is a
//! structured [`CkksError`] — never a panic or abort. The
//! `adversarial_decode` proptest suite drives random corruption through
//! each entry point to enforce this.
//!
//! # Every word moves once, in bulk
//!
//! There is one decoder and one encoder under all the entry points, and
//! each touches a polynomial's words exactly once. Receiving, a
//! [`PolyView`] borrows the frame; its modulus values are compared with
//! the context's, whose `Modulus` entries are then borrowed rather than
//! rebuilt, and each limb goes from the frame's bytes into a polynomial
//! the caller owns — a recycled one on the `*_pooled` paths — through
//! `heax_math::word`'s `decode_le_words`: a branch-free loop that copies
//! and ORs `w >= p` over the limb, so a residue is **validated while it is
//! copied**, at any position, with no early exit for hostile input to
//! steer. Sending, the words are appended to the caller's buffer by
//! `encode_le_words` after one `reserve` of the closed-form size. No
//! allocation is sized by a wire field beyond a ciphertext's component
//! count, which is at most 8: a decoded polynomial has the context's
//! shape or is rejected before it is shaped.

use heax_math::poly::{Representation, RnsPoly};
use heax_math::sampling::{expand_uniform_into, EXPAND_SEED_LEN};
use heax_math::word::{encode_le_words, le_words_eq, Modulus};
use heax_math::MathError;

use crate::ciphertext::{Ciphertext, Plaintext, SeededCiphertext};
use crate::context::CkksContext;
use crate::keys::{KeySwitchKey, PublicKey, RelinKey, SecretKey};
use crate::CkksError;

/// Format magic: "HEAX".
const MAGIC: [u8; 4] = *b"HEAX";
/// Format version.
const VERSION: u8 = 1;
/// Bytes of the object header: magic (4) + version (1) + tag (1).
const HEADER_LEN: usize = 6;

/// Object tags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Tag {
    Poly = 1,
    Plaintext = 2,
    Ciphertext = 3,
    SecretKey = 4,
    PublicKey = 5,
    KeySwitchKey = 6,
    SeededCiphertext = 7,
}

impl Tag {
    fn from_u8(v: u8) -> Option<Tag> {
        match v {
            1 => Some(Tag::Poly),
            2 => Some(Tag::Plaintext),
            3 => Some(Tag::Ciphertext),
            4 => Some(Tag::SecretKey),
            5 => Some(Tag::PublicKey),
            6 => Some(Tag::KeySwitchKey),
            7 => Some(Tag::SeededCiphertext),
            _ => None,
        }
    }
}

/// A little-endian writer appending to a borrowed buffer, so a caller
/// with a hot serialization path writes where the bytes are going.
struct Writer<'b> {
    buf: &'b mut Vec<u8>,
}

impl Writer<'_> {
    fn header(&mut self, tag: Tag) {
        self.buf.extend_from_slice(&MAGIC);
        self.buf.push(VERSION);
        self.buf.push(tag as u8);
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn poly(&mut self, poly: &RnsPoly) {
        self.u64(poly.n() as u64);
        self.u8(match poly.representation() {
            Representation::Coefficient => 0,
            Representation::Ntt => 1,
        });
        self.u64(poly.num_residues() as u64);
        for m in poly.moduli() {
            self.u64(m.value());
        }
        self.u64(poly.data().len() as u64);
        encode_le_words(poly.data(), self.buf);
    }
}

/// A bounds-checked little-endian reader.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn error(what: &str) -> CkksError {
        CkksError::InvalidParameters {
            reason: format!("malformed serialized data: {what}"),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkksError> {
        // `get(..n)` on the tail (not `pos + n > len`): the latter
        // overflows for hostile 64-bit length fields routed here by the
        // container formats.
        let s = self
            .buf
            .get(self.pos..)
            .and_then(|rest| rest.get(..n))
            .ok_or_else(|| Self::error("truncated"))?;
        self.pos += n;
        Ok(s)
    }

    fn header(&mut self, expect: Tag) -> Result<(), CkksError> {
        let magic = self.take(4)?;
        if magic != MAGIC {
            return Err(Self::error("bad magic"));
        }
        let version = self.u8()?;
        if version != VERSION {
            return Err(Self::error("unsupported version"));
        }
        let tag = Tag::from_u8(self.u8()?).ok_or_else(|| Self::error("unknown tag"))?;
        if tag != expect {
            return Err(Self::error("unexpected object tag"));
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, CkksError> {
        match self.take(1)? {
            &[b] => Ok(b),
            _ => Err(Self::error("truncated")),
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CkksError> {
        self.take(N)?
            .try_into()
            .map_err(|_| Self::error("truncated"))
    }

    fn u64(&mut self) -> Result<u64, CkksError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, CkksError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A word count and that many little-endian words, left as the
    /// bytes they arrived in. The count is bounded by the bytes actually
    /// present, and nothing here or downstream sizes an allocation by it.
    fn words(&mut self) -> Result<&'a [u8], CkksError> {
        let n = self.u64()? as usize;
        if n > (self.buf.len() - self.pos) / 8 {
            return Err(Self::error("length field exceeds remaining bytes"));
        }
        self.take(8 * n)
    }

    /// Reads a scale field, enforcing the same bound as parameter
    /// validation ([`crate::params::CkksParams::new`]): finite and
    /// `>= 2`, so malformed wire bytes can't smuggle a NaN/∞/subnormal
    /// scale into downstream rescale or multiply arithmetic.
    fn scale(&mut self) -> Result<f64, CkksError> {
        let scale = self.f64()?;
        if !(scale.is_finite() && scale >= 2.0) {
            return Err(Self::error("scale must be finite and >= 2"));
        }
        Ok(scale)
    }

    fn poly(&mut self) -> Result<PolyView<'a>, CkksError> {
        let n = self.u64()? as usize;
        let repr = match self.u8()? {
            0 => Representation::Coefficient,
            1 => Representation::Ntt,
            _ => return Err(Self::error("bad representation tag")),
        };
        let moduli = self.words()?;
        let words = self.words()?;
        let expect = (moduli.len() / 8)
            .checked_mul(n)
            .and_then(|count| count.checked_mul(8))
            .ok_or_else(|| Self::error("data length overflow"))?;
        if words.len() != expect {
            return Err(Self::error("data shorter than moduli require"));
        }
        Ok(PolyView {
            n,
            repr,
            moduli,
            words,
        })
    }

    /// A key polynomial, decoded against the whole chain.
    fn full_chain_poly(&mut self, ctx: &CkksContext) -> Result<RnsPoly, CkksError> {
        let mut poly = blank_poly();
        self.poly()?.decode_full_chain(ctx, &mut poly)?;
        Ok(poly)
    }

    fn finish(&self) -> Result<(), CkksError> {
        if self.pos != self.buf.len() {
            return Err(Self::error("trailing bytes"));
        }
        Ok(())
    }
}

/// A zero-copy view over one serialized polynomial: metadata is parsed and
/// bounds-checked, but the modulus and limb words stay as borrowed
/// little-endian bytes in the frame buffer until they are decoded — once,
/// against the context's own moduli, into a polynomial the caller owns.
#[derive(Clone, Debug)]
pub struct PolyView<'a> {
    n: usize,
    repr: Representation,
    moduli: &'a [u8],
    words: &'a [u8],
}

impl PolyView<'_> {
    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of RNS residues.
    #[inline]
    pub fn num_residues(&self) -> usize {
        self.moduli.len() / 8
    }

    /// Representation tag.
    #[inline]
    pub fn representation(&self) -> Representation {
        self.repr
    }

    /// Decodes the word at `(residue, index)` straight from the borrowed
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `residue` or `index` is out of range (the view's shape is
    /// already validated, so in-range access never fails).
    #[inline]
    pub fn word(&self, residue: usize, index: usize) -> u64 {
        // heax-lint: allow(L2) -- documented `# Panics` precondition API, not a decode entry point
        assert!(
            residue < self.num_residues() && index < self.n,
            "out of range"
        );
        let off = (residue * self.n + index) * 8;
        // heax-lint: allow(L2) -- in range: the view's shape was bounds-checked at parse time
        u64::from_le_bytes(self.words[off..off + 8].try_into().expect("8 bytes"))
    }

    /// The wire's modulus values.
    fn modulus_values(&self) -> impl Iterator<Item = u64> + '_ {
        self.moduli
            .as_chunks()
            .0
            .iter()
            .map(|w| u64::from_le_bytes(*w))
    }

    /// Decodes a polynomial of a ciphertext or plaintext at `level` into
    /// `dst`.
    fn decode_at_level(
        &self,
        ctx: &CkksContext,
        level: usize,
        dst: &mut RnsPoly,
    ) -> Result<(), CkksError> {
        if self.n != ctx.n() {
            return Err(Reader::error("ring degree mismatch"));
        }
        if level > ctx.max_level() || self.num_residues() != level + 1 {
            return Err(Reader::error("level mismatch"));
        }
        self.decode_words(ctx.level_moduli(level), dst)
    }

    /// Decodes a key polynomial, which spans the whole chain, into `dst`.
    fn decode_full_chain(&self, ctx: &CkksContext, dst: &mut RnsPoly) -> Result<(), CkksError> {
        if self.n != ctx.n() || self.num_residues() != ctx.moduli().len() {
            return Err(Reader::error("full-chain shape mismatch"));
        }
        self.decode_words(ctx.moduli(), dst)
    }

    /// The one pass over a polynomial's words on the receive path, for a
    /// view of the context's degree and as many residues as `moduli`: the
    /// wire's modulus values must be the context's, whose precomputed
    /// [`Modulus`] entries are then borrowed; each limb is copied into
    /// `dst` (reshaped to hold it) and checked canonical in the same
    /// bulk loop.
    fn decode_words(&self, moduli: &[Modulus], dst: &mut RnsPoly) -> Result<(), CkksError> {
        if !self.modulus_values().eq(moduli.iter().map(Modulus::value)) {
            return Err(Reader::error("modulus chain mismatch"));
        }
        dst.reshape(self.n, moduli, self.repr);
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
            return Err(Reader::error("non-canonical residue"));
        }
        Ok(())
    }

    /// Whether decoding this view would reproduce `poly` word for word:
    /// one bulk compare, no copy.
    fn matches(&self, poly: &RnsPoly) -> bool {
        self.n == poly.n()
            && self.repr == poly.representation()
            && self
                .modulus_values()
                .eq(poly.moduli().iter().map(Modulus::value))
            && le_words_eq(self.words, poly.data())
    }
}

/// A polynomial to decode into, which the decoder shapes: one that holds
/// nothing yet.
fn blank_poly() -> RnsPoly {
    RnsPoly::zero(0, &[], Representation::Ntt)
}

/// A polynomial to decode into: a recycled one if the caller has any.
fn take_poly(pool: &mut Vec<RnsPoly>) -> RnsPoly {
    pool.pop().unwrap_or_else(blank_poly)
}

/// Decodes one component of a ciphertext at `level` — NTT form is how
/// they travel — into a polynomial from `pool`, which gets it back on
/// failure.
fn decode_component(
    view: &PolyView<'_>,
    ctx: &CkksContext,
    level: usize,
    pool: &mut Vec<RnsPoly>,
) -> Result<RnsPoly, CkksError> {
    let mut poly = take_poly(pool);
    let decoded = match view.decode_at_level(ctx, level, &mut poly) {
        Ok(()) if view.repr != Representation::Ntt => {
            Err(CkksError::Math(MathError::RepresentationMismatch))
        }
        decoded => decoded,
    };
    match decoded {
        Ok(()) => Ok(poly),
        Err(e) => {
            pool.push(poly);
            Err(e)
        }
    }
}

/// Serializes a plaintext.
pub fn serialize_plaintext(pt: &Plaintext) -> Vec<u8> {
    let mut buf = Vec::new();
    serialize_plaintext_into(pt, &mut buf);
    buf
}

/// [`serialize_plaintext`] into a caller-provided buffer (cleared
/// first), so a serving loop can reuse one wire buffer across requests
/// instead of allocating per message.
pub fn serialize_plaintext_into(pt: &Plaintext, buf: &mut Vec<u8>) {
    buf.clear();
    let mut w = Writer { buf };
    w.header(Tag::Plaintext);
    w.u64(pt.level() as u64);
    w.f64(pt.scale());
    w.poly(pt.poly());
}

/// Deserializes a plaintext, validating against the context.
///
/// # Errors
///
/// [`CkksError::InvalidParameters`] on malformed input or context
/// mismatch.
pub fn deserialize_plaintext(buf: &[u8], ctx: &CkksContext) -> Result<Plaintext, CkksError> {
    let mut r = Reader::new(buf);
    r.header(Tag::Plaintext)?;
    let level = r.u64()? as usize;
    let scale = r.scale()?;
    let view = r.poly()?;
    r.finish()?;
    let mut poly = blank_poly();
    view.decode_at_level(ctx, level, &mut poly)?;
    Ok(Plaintext::from_parts(poly, level, scale))
}

/// Serializes a ciphertext.
pub fn serialize_ciphertext(ct: &Ciphertext) -> Vec<u8> {
    let mut buf = Vec::new();
    serialize_ciphertext_append(ct, &mut buf);
    buf
}

/// [`serialize_ciphertext`] into a caller-provided buffer (cleared
/// first), so a serving loop can reuse one wire buffer across requests
/// instead of allocating per message.
pub fn serialize_ciphertext_into(ct: &Ciphertext, buf: &mut Vec<u8>) {
    buf.clear();
    serialize_ciphertext_append(ct, buf);
}

/// [`serialize_ciphertext`] appended to what `buf` already holds — a frame
/// header, earlier replies — after one `reserve` of the closed-form
/// [`serialized_ciphertext_bytes`]: the words go from the ciphertext to
/// the buffer they leave the process from in one bulk pass.
pub fn serialize_ciphertext_append(ct: &Ciphertext, buf: &mut Vec<u8>) {
    buf.reserve(serialized_ciphertext_bytes(
        ct.n(),
        ct.level() + 1,
        ct.size(),
    ));
    let mut w = Writer { buf };
    w.header(Tag::Ciphertext);
    w.u64(ct.level() as u64);
    w.f64(ct.scale());
    w.u64(ct.size() as u64);
    for c in ct.components() {
        w.poly(c);
    }
}

/// Deserializes a ciphertext, validating against the context.
///
/// # Errors
///
/// [`CkksError::InvalidParameters`] on malformed input or context
/// mismatch.
pub fn deserialize_ciphertext(buf: &[u8], ctx: &CkksContext) -> Result<Ciphertext, CkksError> {
    CiphertextView::parse(buf)?.to_ciphertext(ctx)
}

/// Serializes a seeded ciphertext (tag 7): the `b` component plus the
/// 32-byte expansion seed, in place of the uniform `a` polynomial —
/// roughly half the bytes of the equivalent [`serialize_ciphertext`].
pub fn serialize_seeded_ciphertext(ct: &SeededCiphertext) -> Vec<u8> {
    let mut buf = Vec::new();
    serialize_seeded_ciphertext_into(ct, &mut buf);
    buf
}

/// [`serialize_seeded_ciphertext`] into a caller-provided buffer (cleared
/// first).
pub fn serialize_seeded_ciphertext_into(ct: &SeededCiphertext, buf: &mut Vec<u8>) {
    buf.clear();
    let mut w = Writer { buf };
    w.header(Tag::SeededCiphertext);
    w.u64(ct.level() as u64);
    w.f64(ct.scale());
    w.buf.extend_from_slice(ct.seed());
    w.poly(ct.b());
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
        let mut r = Reader::new(buf);
        r.header(Tag::SeededCiphertext)?;
        let level = r.u64()? as usize;
        let scale = r.scale()?;
        let seed = r.array()?;
        let b = r.poly()?;
        r.finish()?;
        Ok(Self {
            level,
            scale,
            seed,
            b,
        })
    }
}

/// Deserializes a seeded ciphertext, validating against the context. Call
/// [`SeededCiphertext::expand`] on the result to recover the ordinary
/// two-component ciphertext.
///
/// # Errors
///
/// [`CkksError::InvalidParameters`] on malformed input or context
/// mismatch.
pub fn deserialize_seeded_ciphertext(
    buf: &[u8],
    ctx: &CkksContext,
) -> Result<SeededCiphertext, CkksError> {
    let view = SeededView::parse(buf)?;
    let b = decode_component(&view.b, ctx, view.level, &mut Vec::new())?;
    SeededCiphertext::from_parts(b, view.seed, view.level, view.scale)
}

/// A zero-copy view over a serialized ciphertext: level, scale, and
/// per-component [`PolyView`]s borrowing the frame buffer. Parsing
/// validates every length field against the bytes actually present but
/// copies **no limb words** — a hot receive path can inspect metadata
/// (and reject garbage) before paying for a single word of polynomial
/// data, then materialize with [`CiphertextView::to_ciphertext`] in one
/// validate-while-copy pass.
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
/// assert_eq!((view.size(), view.level()), (ct.size(), ct.level()));
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
    /// Parses a borrowed view from serialized ciphertext bytes. Decoding
    /// is total: any malformed input (bad magic, hostile length fields,
    /// truncation, trailing bytes) yields `Err`, never a panic, and no
    /// limb data is read or copied.
    ///
    /// # Errors
    ///
    /// [`CkksError::InvalidParameters`] on malformed input.
    pub fn parse(buf: &'a [u8]) -> Result<Self, CkksError> {
        let mut r = Reader::new(buf);
        r.header(Tag::Ciphertext)?;
        let level = r.u64()? as usize;
        let scale = r.scale()?;
        let size = r.u64()? as usize;
        if !(2..=8).contains(&size) {
            return Err(Reader::error("implausible component count"));
        }
        let mut components = Vec::with_capacity(size);
        for _ in 0..size {
            components.push(r.poly()?);
        }
        r.finish()?;
        Ok(Self {
            level,
            scale,
            components,
        })
    }

    /// Level in the modulus chain.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Encoding scale Δ.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Number of polynomial components.
    #[inline]
    pub fn size(&self) -> usize {
        self.components.len()
    }

    /// Component `i` as a borrowed polynomial view.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.size()`.
    #[inline]
    pub fn component(&self, i: usize) -> &PolyView<'a> {
        // heax-lint: allow(L2) -- documented `# Panics` precondition API, not a decode entry point
        &self.components[i]
    }

    /// Materializes the view into an owned, context-validated
    /// [`Ciphertext`]. Limb words are decoded, canonicity-checked, and
    /// copied exactly once.
    ///
    /// # Errors
    ///
    /// [`CkksError::InvalidParameters`] on context mismatch or
    /// non-canonical residues.
    pub fn to_ciphertext(&self, ctx: &CkksContext) -> Result<Ciphertext, CkksError> {
        self.to_ciphertext_pooled(ctx, &mut Vec::new())
    }

    /// [`CiphertextView::to_ciphertext`] into polynomials popped off
    /// `pool` (fresh ones once it is empty) — where a server puts the
    /// components of the ciphertexts it is done with, so that steady
    /// traffic decodes into memory it already owns. On failure every
    /// polynomial taken is back in `pool`.
    ///
    /// # Errors
    ///
    /// Same as [`CiphertextView::to_ciphertext`].
    pub fn to_ciphertext_pooled(
        &self,
        ctx: &CkksContext,
        pool: &mut Vec<RnsPoly>,
    ) -> Result<Ciphertext, CkksError> {
        let mut polys = Vec::with_capacity(self.components.len());
        for view in &self.components {
            match decode_component(view, ctx, self.level, pool) {
                Ok(poly) => polys.push(poly),
                Err(e) => {
                    pool.append(&mut polys);
                    return Err(e);
                }
            }
        }
        Ok(Ciphertext {
            polys,
            level: self.level,
            scale: self.scale,
        })
    }
}

/// Decodes an inline wire operand that may be either a full ciphertext
/// (tag 3, via the zero-copy [`CiphertextView`] path) or a seeded fresh
/// encryption (tag 7, expanded deterministically). Returns the owned
/// ciphertext plus `true` when the operand arrived seeded — the serving
/// layer feeds that bit into the transfer model, which prices a seeded
/// upload at roughly half the bytes.
///
/// # Errors
///
/// [`CkksError::InvalidParameters`] on malformed input or context
/// mismatch.
pub fn deserialize_operand(buf: &[u8], ctx: &CkksContext) -> Result<(Ciphertext, bool), CkksError> {
    let (ct, seed) = deserialize_operand_pooled(buf, ctx, &mut Vec::new())?;
    Ok((ct, seed.is_some()))
}

/// [`deserialize_operand`] into polynomials recycled through `pool` (see
/// [`CiphertextView::to_ciphertext_pooled`]), returning the seed itself
/// when the operand arrived seeded.
///
/// # Errors
///
/// Same as [`deserialize_operand`]; every polynomial taken is back in
/// `pool`.
pub fn deserialize_operand_pooled(
    buf: &[u8],
    ctx: &CkksContext,
    pool: &mut Vec<RnsPoly>,
) -> Result<(Ciphertext, Option<[u8; EXPAND_SEED_LEN]>), CkksError> {
    // Peek the object tag (byte 6) without committing to either decoder.
    match buf.get(5).copied().and_then(Tag::from_u8) {
        Some(Tag::SeededCiphertext) => {
            let view = SeededView::parse(buf)?;
            let b = decode_component(&view.b, ctx, view.level, pool)?;
            let mut a = take_poly(pool);
            a.reshape(b.n(), b.moduli(), Representation::Ntt);
            expand_uniform_into(&view.seed, &mut a);
            let ct = Ciphertext {
                polys: vec![b, a],
                level: view.level,
                scale: view.scale,
            };
            Ok((ct, Some(view.seed)))
        }
        _ => Ok((
            CiphertextView::parse(buf)?.to_ciphertext_pooled(ctx, pool)?,
            None,
        )),
    }
}

/// Whether `buf` is a well-formed seeded operand that
/// [`deserialize_operand_pooled`] would decode to exactly `ct`, given that
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

/// Closed-form serialized size of one polynomial with `limbs` residues at
/// ring degree `n`: `n`(8) + repr(1) + moduli(8 + 8·limbs) + data
/// (8 + 8·limbs·n). Unit-tested against the real encoder.
pub fn serialized_poly_bytes(n: usize, limbs: usize) -> usize {
    8 + 1 + (8 + 8 * limbs) + (8 + 8 * limbs * n)
}

/// Closed-form serialized size of a `size`-component ciphertext.
pub fn serialized_ciphertext_bytes(n: usize, limbs: usize, size: usize) -> usize {
    HEADER_LEN + 8 + 8 + 8 + size * serialized_poly_bytes(n, limbs)
}

/// Closed-form serialized size of a seeded fresh encryption: one `b`
/// polynomial plus the 32-byte seed standing in for `a`.
pub fn serialized_seeded_ciphertext_bytes(n: usize, limbs: usize) -> usize {
    HEADER_LEN + 8 + 8 + EXPAND_SEED_LEN + serialized_poly_bytes(n, limbs)
}

/// Serializes a secret key.
pub fn serialize_secret_key(sk: &SecretKey) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = Writer { buf: &mut buf };
    w.header(Tag::SecretKey);
    w.poly(sk.poly());
    buf
}

/// Deserializes a secret key.
///
/// # Errors
///
/// [`CkksError::InvalidParameters`] on malformed input or context
/// mismatch.
pub fn deserialize_secret_key(buf: &[u8], ctx: &CkksContext) -> Result<SecretKey, CkksError> {
    let mut r = Reader::new(buf);
    r.header(Tag::SecretKey)?;
    let poly = r.full_chain_poly(ctx)?;
    r.finish()?;
    Ok(SecretKey { poly })
}

/// Serializes a public key.
pub fn serialize_public_key(pk: &PublicKey) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = Writer { buf: &mut buf };
    w.header(Tag::PublicKey);
    w.poly(pk.b());
    w.poly(pk.a());
    buf
}

/// Deserializes a public key.
///
/// # Errors
///
/// [`CkksError::InvalidParameters`] on malformed input or context
/// mismatch.
pub fn deserialize_public_key(buf: &[u8], ctx: &CkksContext) -> Result<PublicKey, CkksError> {
    let mut r = Reader::new(buf);
    r.header(Tag::PublicKey)?;
    let b = r.full_chain_poly(ctx)?;
    let a = r.full_chain_poly(ctx)?;
    r.finish()?;
    Ok(PublicKey { b, a })
}

/// Serializes a key-switching key (also used for relinearization keys).
pub fn serialize_ksk(ksk: &KeySwitchKey) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = Writer { buf: &mut buf };
    w.header(Tag::KeySwitchKey);
    w.u64(ksk.decomp_len() as u64);
    for i in 0..ksk.decomp_len() {
        let (b, a) = ksk.component(i);
        w.poly(b);
        w.poly(a);
    }
    buf
}

/// Deserializes a key-switching key.
///
/// # Errors
///
/// [`CkksError::InvalidParameters`] on malformed input or context
/// mismatch.
pub fn deserialize_ksk(buf: &[u8], ctx: &CkksContext) -> Result<KeySwitchKey, CkksError> {
    let mut r = Reader::new(buf);
    r.header(Tag::KeySwitchKey)?;
    let d = r.u64()? as usize;
    if d != ctx.params().k() {
        return Err(Reader::error("decomposition length mismatch"));
    }
    let mut components = Vec::with_capacity(d);
    for _ in 0..d {
        let b = r.full_chain_poly(ctx)?;
        let a = r.full_chain_poly(ctx)?;
        components.push((b, a));
    }
    r.finish()?;
    Ok(KeySwitchKey::from_components(components))
}

/// Serializes a relinearization key.
pub fn serialize_relin_key(rlk: &RelinKey) -> Vec<u8> {
    serialize_ksk(rlk.ksk())
}

/// Serializes Galois keys: the Galois elements followed by each element's
/// key-switching key (permutation tables are regenerated on load).
pub fn serialize_galois_keys(gks: &crate::keys::GaloisKeys) -> Vec<u8> {
    // `elements()` only yields stored keys, so the lookup cannot miss;
    // stay total anyway (drop the pair) rather than panic in a serializer.
    let mut keyed: Vec<(usize, &KeySwitchKey)> = gks
        .elements()
        .filter_map(|e| gks.key(e).ok().map(|k| (e, k)))
        .collect();
    keyed.sort_unstable_by_key(|&(e, _)| e);
    let mut buf = Vec::new();
    let mut w = Writer { buf: &mut buf };
    w.header(Tag::KeySwitchKey); // container reuses the ksk tag + count
    w.u64(keyed.len() as u64);
    for (elt, key) in keyed {
        let ksk_bytes = serialize_ksk(key);
        w.u64(elt as u64);
        w.u64(ksk_bytes.len() as u64);
        w.buf.extend_from_slice(&ksk_bytes);
    }
    buf
}

/// Deserializes Galois keys, rebuilding permutation tables.
///
/// Elements must be strictly increasing, the order
/// [`serialize_galois_keys`] writes them in, so a key set has exactly one
/// encoding: `serialize_galois_keys(&deserialize_galois_keys(b)?) == b`.
///
/// # Errors
///
/// [`CkksError::InvalidParameters`] on malformed input or context
/// mismatch, a repeated element included.
pub fn deserialize_galois_keys(
    buf: &[u8],
    ctx: &CkksContext,
) -> Result<crate::keys::GaloisKeys, CkksError> {
    let mut r = Reader::new(buf);
    r.header(Tag::KeySwitchKey)?;
    let count = r.u64()? as usize;
    if count > 4096 {
        return Err(Reader::error("implausible Galois key count"));
    }
    let mut keys = std::collections::HashMap::new();
    let mut permutations = std::collections::HashMap::new();
    let mut floor = 0;
    for _ in 0..count {
        let elt = r.u64()? as usize;
        if elt.is_multiple_of(2) || elt >= 2 * ctx.n() {
            return Err(Reader::error("invalid Galois element"));
        }
        if elt < floor {
            return Err(Reader::error("Galois elements not strictly increasing"));
        }
        floor = elt + 1;
        let len = r.u64()? as usize;
        let ksk_bytes = r.take(len)?;
        let ksk = deserialize_ksk(ksk_bytes, ctx)?;
        permutations.insert(elt, crate::galois::galois_permutation(elt, ctx.n()));
        keys.insert(elt, ksk);
    }
    r.finish()?;
    Ok(crate::keys::GaloisKeys { keys, permutations })
}

/// Deserializes a relinearization key.
///
/// # Errors
///
/// Same as [`deserialize_ksk`].
pub fn deserialize_relin_key(buf: &[u8], ctx: &CkksContext) -> Result<RelinKey, CkksError> {
    Ok(RelinKey {
        ksk: deserialize_ksk(buf, ctx)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::tests::small;
    use crate::encoder::CkksEncoder;
    use crate::encrypt::{Decryptor, Encryptor};
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
        let bytes = serialize_plaintext(&r.pt);
        let back = deserialize_plaintext(&bytes, &r.ctx).unwrap();
        assert_eq!(back, r.pt);
    }

    #[test]
    fn key_roundtrips() {
        let r = rig();
        let sk2 = deserialize_secret_key(&serialize_secret_key(&r.sk), &r.ctx).unwrap();
        assert_eq!(sk2, r.sk);
        let pk2 = deserialize_public_key(&serialize_public_key(&r.pk), &r.ctx).unwrap();
        assert_eq!(pk2, r.pk);
        let rlk2 = deserialize_relin_key(&serialize_relin_key(&r.rlk), &r.ctx).unwrap();
        assert_eq!(rlk2, r.rlk);
    }

    #[test]
    fn galois_keys_roundtrip_and_still_rotate() {
        let ctx = CkksContext::new(small()).unwrap();
        let mut rng = StdRng::seed_from_u64(88);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let pk = PublicKey::generate(&ctx, &sk, &mut rng);
        let gks = crate::keys::GaloisKeys::generate(&ctx, &sk, &[1, -2], &mut rng);
        let bytes = serialize_galois_keys(&gks);
        let back = deserialize_galois_keys(&bytes, &ctx).unwrap();
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
        let eval = crate::eval::Evaluator::new(&ctx);
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
        let pt_bytes = serialize_plaintext(&r.pt);
        assert!(deserialize_ciphertext(&pt_bytes, &r.ctx).is_err());
        // Non-canonical residue: set a residue word above its modulus.
        let mut tampered = bytes;
        let len = tampered.len();
        tampered[len - 1] = 0xff;
        tampered[len - 2] = 0xff;
        assert!(deserialize_ciphertext(&tampered, &r.ctx).is_err());
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
        let pt_bytes = serialize_plaintext(&r.pt);
        let mut tampered = pt_bytes;
        tampered[scale_off..scale_off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(deserialize_plaintext(&tampered, &r.ctx).is_err());
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
    fn serialize_into_reuses_buffer() {
        let r = rig();
        // Stale, differently-sized content must be fully replaced.
        let mut buf = serialize_plaintext(&r.pt);
        serialize_ciphertext_into(&r.ct, &mut buf);
        assert_eq!(buf, serialize_ciphertext(&r.ct));
        assert_eq!(deserialize_ciphertext(&buf, &r.ctx).unwrap(), r.ct);
        serialize_plaintext_into(&r.pt, &mut buf);
        assert_eq!(buf, serialize_plaintext(&r.pt));
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

    #[test]
    fn sizes_are_sane() {
        let r = rig();
        // Ciphertext ≈ 2 components × (level+1) residues × n × 8 bytes.
        let bytes = serialize_ciphertext(&r.ct);
        let payload = 2 * (r.ct.level() + 1) * r.ctx.n() * 8;
        assert!(bytes.len() > payload);
        assert!(bytes.len() < payload + 1024);
    }

    #[test]
    fn seeded_ciphertext_roundtrip_halves_the_bytes() {
        let r = rig();
        let mut rng = StdRng::seed_from_u64(91);
        let enc = CkksEncoder::new(&r.ctx);
        let pt = enc
            .encode_real(&[2.25, -8.0], r.ctx.params().scale(), r.ctx.max_level())
            .unwrap();
        let seeded =
            crate::encrypt::encrypt_symmetric_seeded(&r.ctx, &r.sk, &pt, &mut rng).unwrap();
        let bytes = serialize_seeded_ciphertext(&seeded);
        let back = deserialize_seeded_ciphertext(&bytes, &r.ctx).unwrap();
        assert_eq!(back, seeded);
        // The expansion of the decoded object matches the sender's.
        assert_eq!(back.expand(&r.ctx).unwrap(), seeded.expand(&r.ctx).unwrap());
        // Roughly half the full encoding (one poly + 32 bytes vs two).
        let full = serialize_ciphertext(&seeded.expand(&r.ctx).unwrap());
        assert!(bytes.len() * 2 < full.len() + 1024);
        // And the closed forms agree with the real encoders.
        let limbs = r.ctx.max_level() + 1;
        assert_eq!(
            bytes.len(),
            serialized_seeded_ciphertext_bytes(r.ctx.n(), limbs)
        );
        assert_eq!(full.len(), serialized_ciphertext_bytes(r.ctx.n(), limbs, 2));
    }

    #[test]
    fn seeded_corruption_detected() {
        let r = rig();
        let mut rng = StdRng::seed_from_u64(92);
        let enc = CkksEncoder::new(&r.ctx);
        let pt = enc
            .encode_real(&[1.0], r.ctx.params().scale(), r.ctx.max_level())
            .unwrap();
        let seeded =
            crate::encrypt::encrypt_symmetric_seeded(&r.ctx, &r.sk, &pt, &mut rng).unwrap();
        let bytes = serialize_seeded_ciphertext(&seeded);
        assert!(deserialize_seeded_ciphertext(&bytes[..10], &r.ctx).is_err());
        let mut bad = bytes.clone();
        bad[5] = Tag::Ciphertext as u8;
        assert!(deserialize_seeded_ciphertext(&bad, &r.ctx).is_err());
        let mut long = bytes;
        long.push(0);
        assert!(deserialize_seeded_ciphertext(&long, &r.ctx).is_err());
    }

    #[test]
    fn ciphertext_view_is_faithful() {
        let r = rig();
        let bytes = serialize_ciphertext(&r.ct);
        let view = CiphertextView::parse(&bytes).unwrap();
        assert_eq!(view.level(), r.ct.level());
        assert_eq!(view.scale(), r.ct.scale());
        assert_eq!(view.size(), r.ct.size());
        let c0 = view.component(0);
        assert_eq!(c0.n(), r.ct.n());
        assert_eq!(c0.num_residues(), r.ct.level() + 1);
        assert_eq!(c0.representation(), Representation::Ntt);
        assert_eq!(c0.word(0, 3), r.ct.component(0).residue(0)[3]);
        assert_eq!(view.to_ciphertext(&r.ctx).unwrap(), r.ct);
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
        let seeded =
            crate::encrypt::encrypt_symmetric_seeded(&r.ctx, &r.sk, &pt, &mut rng).unwrap();
        let (expanded, seeded_flag) =
            deserialize_operand(&serialize_seeded_ciphertext(&seeded), &r.ctx).unwrap();
        assert_eq!(expanded, seeded.expand(&r.ctx).unwrap());
        assert!(seeded_flag);

        assert!(deserialize_operand(&[], &r.ctx).is_err());
        assert!(deserialize_operand(&serialize_plaintext(&r.pt), &r.ctx).is_err());
    }
}
