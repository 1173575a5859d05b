//! Index persistence: a compact, versioned binary format for
//! [`IvfPqIndex`], so a tuned index can be built once and shipped to the
//! serving tier (the paper's offline-profile / online-serve split assumes
//! exactly this workflow).
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "DRIM" | version u32 | dim u32 | nlist u32 | m u32 | cb u32 |
//! dsub u32 |                           (28-byte header)
//! coarse:    nlist * dim f32 |
//! codebooks: m * cb * dsub f32 |
//! lists: nlist x { len u32 | ids u32[len] | codes u16[len * m] } |
//! checksum u64                         (hash_words over every byte above)
//! ```
//!
//! The residual quantizer is plain PQ, so the codebooks are all there is
//! to it. A file of any other version is `InvalidData`, version 2 (which
//! carried a quantizer-variant byte and an optional rotation) included.
//!
//! `cb` is at most [`MAX_CB`], every code is below `cb`, and the checksum
//! makes a flipped id or code an `InvalidData` error instead of a
//! silently different index.

use crate::hash::hash_words;
use crate::ivf::{IvfList, IvfPqIndex, IvfPqParams};
use crate::pq::{ProductQuantizer, MAX_CB};
use crate::vector::VecSet;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"DRIM";
const VERSION: u32 = 3;

/// Serialize an index to a writer.
pub fn save<W: Write>(idx: &IvfPqIndex, w: W) -> io::Result<()> {
    let mut w = Hashed {
        inner: w,
        digest: 0,
    };
    w.write_all(MAGIC)?;
    put_u32(&mut w, VERSION)?;
    put_u32(&mut w, idx.dim as u32)?;
    put_u32(&mut w, idx.params.nlist as u32)?;
    put_u32(&mut w, idx.params.m as u32)?;
    put_u32(&mut w, idx.params.cb as u32)?;
    let pq = &idx.quant;
    put_u32(&mut w, pq.dsub as u32)?;

    for &x in idx.coarse.as_flat() {
        w.write_all(&x.to_le_bytes())?;
    }
    for &x in pq.codebooks_flat() {
        w.write_all(&x.to_le_bytes())?;
    }
    for list in &idx.lists {
        put_u32(&mut w, list.ids.len() as u32)?;
        for &id in &list.ids {
            put_u32(&mut w, id)?;
        }
        for &c in &list.codes {
            w.write_all(&c.to_le_bytes())?;
        }
    }
    let sum = w.digest;
    w.inner.write_all(&sum.to_le_bytes())
}

/// Deserialize an index from a reader.
///
/// The header is untrusted: section sizes are computed with checked
/// arithmetic and bodies are read through [`Read::take`], so memory grows
/// only with bytes actually present — a short or hostile stream is an
/// `Err` (`UnexpectedEof` / `InvalidData`), never a panic or an
/// allocation the input did not pay for. A `cb` past [`MAX_CB`], an
/// out-of-range PQ code or a checksum mismatch is `InvalidData`.
pub fn load<R: Read>(r: R) -> io::Result<IvfPqIndex> {
    let mut r = Hashed {
        inner: r,
        digest: 0,
    };
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a DRIM index file"));
    }
    let version = get_u32(&mut r)?;
    if version != VERSION {
        return Err(bad(&format!("unsupported version {version}")));
    }
    let dim = get_u32(&mut r)? as usize;
    let nlist = get_u32(&mut r)? as usize;
    let m = get_u32(&mut r)? as usize;
    let cb = get_u32(&mut r)? as usize;
    let dsub = get_u32(&mut r)? as usize;
    if dim == 0 || nlist == 0 || m == 0 || dsub != dim.div_ceil(m) {
        return Err(bad("implausible header"));
    }
    if !(2..=MAX_CB).contains(&cb) {
        return Err(bad(&format!("cb {cb} outside 2..={MAX_CB}")));
    }

    let coarse = VecSet::from_flat(dim, get_le(&mut r, &[nlist, dim], f32::from_le_bytes)?);
    let codebooks = get_le(&mut r, &[m, cb, dsub], f32::from_le_bytes)?;
    let quant = ProductQuantizer::from_codebooks(dim, m, cb, codebooks);

    let lists = (0..nlist)
        .map(|_| {
            let len = get_u32(&mut r)? as usize;
            let ids = get_le(&mut r, &[len], u32::from_le_bytes)?;
            let codes = get_le(&mut r, &[len, m], u16::from_le_bytes)?;
            if codes.iter().any(|&c| usize::from(c) >= cb) {
                return Err(bad("PQ code out of range"));
            }
            Ok(IvfList { ids, codes })
        })
        .collect::<io::Result<Vec<_>>>()?;
    let sum = r.digest;
    let mut stored = [0u8; 8];
    r.inner.read_exact(&mut stored)?;
    if u64::from_le_bytes(stored) != sum {
        return Err(bad("checksum mismatch"));
    }

    // derived, not serialized: rebuild the cached centroid norms
    let coarse_norms = crate::kernels::row_norms_f32(coarse.as_flat(), dim);
    Ok(IvfPqIndex {
        params: IvfPqParams::new(nlist).m(m).cb(cb),
        dim,
        coarse,
        coarse_norms,
        lists,
        quant,
    })
}

/// A reader or writer that folds every byte passing through it into a
/// [`hash_words`] digest, so the checksum does not depend on how the
/// stream is chunked.
struct Hashed<T> {
    inner: T,
    digest: u64,
}

impl<T> Hashed<T> {
    fn fold(&mut self, bytes: &[u8]) {
        self.digest = hash_words(self.digest, bytes.iter().map(|&b| u64::from(b)));
    }
}

impl<W: Write> Write for Hashed<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.fold(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<R: Read> Read for Hashed<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.fold(&buf[..n]);
        Ok(n)
    }
}

fn put_u32<W: Write>(w: &mut W, x: u32) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Read `shape.iter().product()` little-endian `N`-byte elements.
fn get_le<R: Read, T, const N: usize>(
    r: &mut R,
    shape: &[usize],
    from_le: fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let nbytes = shape
        .iter()
        .try_fold(N, |acc, &f| acc.checked_mul(f))
        .ok_or_else(|| bad("section size overflows"))?;
    let mut bytes = Vec::new();
    r.take(nbytes as u64).read_to_end(&mut bytes)?;
    if bytes.len() != nbytes {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(bytes
        .chunks_exact(N)
        .map(|b| from_le(b.try_into().expect("chunks_exact yields N bytes")))
        .collect())
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::IvfPqParams;

    fn toy_data(n: usize, dim: usize, seed: u64) -> VecSet<f32> {
        let mut s = VecSet::new(dim);
        let mut lcg = seed | 1;
        for _ in 0..n {
            let v: Vec<f32> = (0..dim)
                .map(|_| {
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((lcg >> 33) as f32 / u32::MAX as f32) * 50.0
                })
                .collect();
            s.push(&v);
        }
        s
    }

    #[test]
    fn pq_roundtrip() {
        let data = toy_data(400, 8, 3);
        let idx = IvfPqIndex::build(&data, &IvfPqParams::new(8).m(4).cb(16));
        let mut buf = Vec::new();
        save(&idx, &mut buf).unwrap();
        let back = load(&buf[..]).unwrap();

        assert_eq!(back.dim, idx.dim);
        assert_eq!(back.params.nlist, idx.params.nlist);
        assert_eq!(back.len(), idx.len());
        // identical search results
        for qi in [0usize, 17, 399] {
            let a: Vec<u64> = idx
                .search(data.get(qi), 4, 5)
                .iter()
                .map(|n| n.id)
                .collect();
            let b: Vec<u64> = back
                .search(data.get(qi), 4, 5)
                .iter()
                .map(|n| n.id)
                .collect();
            assert_eq!(a, b, "query {qi}");
        }
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(load(&b"NOPE"[..]).is_err());
        let mut truncated = Vec::new();
        let data = toy_data(50, 4, 9);
        let idx = IvfPqIndex::build(&data, &IvfPqParams::new(2).m(2).cb(4));
        save(&idx, &mut truncated).unwrap();
        truncated.truncate(truncated.len() / 2);
        assert!(load(&truncated[..]).is_err());
    }

    /// Offsets of a saved blob's section boundaries: header end, coarse,
    /// codebooks, each list's length / ids / codes, then the checksum.
    fn section_boundaries(idx: &IvfPqIndex) -> Vec<usize> {
        let (dim, m) = (idx.dim, idx.params.m);
        let mut cuts = vec![4, 8, 28];
        let mut at = 28;
        let mut advance = |bytes: usize| {
            at += bytes;
            cuts.push(at);
        };
        advance(idx.params.nlist * dim * 4);
        advance(idx.quant.codebooks_flat().len() * 4);
        for list in &idx.lists {
            advance(4);
            advance(list.ids.len() * 4);
            advance(list.ids.len() * m * 2);
        }
        advance(8);
        cuts
    }

    #[test]
    fn truncation_at_every_section_boundary_is_an_error() {
        let (idx, buf) = saved_blob();
        let cuts = section_boundaries(&idx);
        assert_eq!(
            *cuts.last().unwrap(),
            buf.len(),
            "boundaries cover the blob"
        );
        assert!(load(&buf[..]).is_ok());
        for cut in cuts.into_iter().filter(|&c| c < buf.len()) {
            for at in [cut.saturating_sub(1), cut, cut + 1] {
                let err = load(&buf[..at.min(buf.len() - 1)]).err();
                let kind = err.map(|e| e.kind());
                assert_eq!(kind, Some(io::ErrorKind::UnexpectedEof), "cut at {at}");
            }
        }
    }

    /// A 28-byte header with the given `dim, nlist, m, cb, dsub`.
    fn header(dim: u32, nlist: u32, m: u32, cb: u32, dsub: u32) -> Vec<u8> {
        let mut h = MAGIC.to_vec();
        for x in [VERSION, dim, nlist, m, cb, dsub] {
            h.extend_from_slice(&x.to_le_bytes());
        }
        h
    }

    /// `body` with its checksum appended, so only a check before the
    /// checksum's can reject it.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let sum = hash_words(0, body.iter().map(|&b| u64::from(b)));
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    #[test]
    fn header_claiming_a_huge_index_is_an_error_not_an_allocation() {
        // nlist * dim * 4 overflows 64 bits; the smaller shapes would be
        // 16 GiB .. 64 EiB allocations if the header were believed
        for (dim, nlist, m, cb) in [
            (u32::MAX, u32::MAX, 1, 2),
            (u32::MAX, u32::MAX, u32::MAX, u32::MAX),
            (1, u32::MAX, 1, 2),
            (8, 4, 4, u32::MAX),
        ] {
            let dsub = dim.div_ceil(m);
            let mut blob = header(dim, nlist, m, cb, dsub);
            assert!(
                load(&blob[..]).is_err(),
                "bare header {dim} {nlist} {m} {cb}"
            );
            blob.extend_from_slice(&[0u8; 64]);
            assert!(
                load(&blob[..]).is_err(),
                "header + tail {dim} {nlist} {m} {cb}"
            );
        }
        // a dsub that contradicts dim / m is rejected before any body read
        assert!(load(&header(8, 4, 4, 16, 3)[..]).is_err());
    }

    #[test]
    fn list_length_beyond_the_stream_is_an_error_not_an_allocation() {
        // valid header + coarse + codebooks, then a list claiming
        // u32::MAX entries over a 10-byte tail
        let (dim, nlist, m, cb) = (2u32, 1u32, 2u32, 2u32);
        let mut blob = header(dim, nlist, m, cb, 1);
        blob.extend_from_slice(&vec![0u8; ((nlist * dim + m * cb) * 4) as usize]);
        blob.extend_from_slice(&u32::MAX.to_le_bytes());
        blob.extend_from_slice(&[7u8; 10]);
        let kind = load(&blob[..]).err().map(|e| e.kind());
        assert_eq!(kind, Some(io::ErrorKind::UnexpectedEof));
    }

    /// A saved 3-list PQ index whose last list is non-empty.
    fn saved_blob() -> (IvfPqIndex, Vec<u8>) {
        let data = toy_data(60, 4, 5);
        let idx = IvfPqIndex::build(&data, &IvfPqParams::new(3).m(2).cb(4));
        assert!(!idx.lists.last().unwrap().ids.is_empty());
        let mut buf = Vec::new();
        save(&idx, &mut buf).unwrap();
        (idx, buf)
    }

    #[test]
    fn out_of_range_code_is_an_error() {
        let (idx, mut buf) = saved_blob();
        // the last code of the last list sits just before the checksum;
        // re-seal so only the range check can reject it
        buf.truncate(buf.len() - 8);
        let body = buf.len();
        buf[body - 2..body].copy_from_slice(&(idx.params.cb as u16).to_le_bytes());
        let err = load(&sealed(buf)[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("code out of range"), "{err}");
    }

    #[test]
    fn flipped_id_byte_fails_the_checksum() {
        let (idx, mut buf) = saved_blob();
        let cuts = section_boundaries(&idx);
        // cuts end with the last list's length, ids, codes, checksum
        let first_id_of_last_list = cuts[cuts.len() - 4];
        buf[first_id_of_last_list] ^= 1;
        let err = load(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn version_field_is_checked() {
        let data = toy_data(50, 4, 11);
        let idx = IvfPqIndex::build(&data, &IvfPqParams::new(2).m(2).cb(4));
        let mut buf = Vec::new();
        save(&idx, &mut buf).unwrap();
        buf[4] = 99; // corrupt version
        assert!(load(&buf[..]).is_err());
    }

    #[test]
    fn codebook_past_u16_codes_is_invalid_data() {
        // a complete, correctly sealed one-list index whose header claims
        // MAX_CB + 1 codewords: rejected from the header, before the
        // quantizer (which asserts the bound) is built
        let cb = MAX_CB as u32 + 1;
        let mut body = header(1, 1, 1, cb, 1);
        body.extend_from_slice(&vec![0u8; (1 + cb as usize) * 4]);
        body.extend_from_slice(&0u32.to_le_bytes());
        let err = load(&sealed(body)[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cb"), "{err}");
    }

    #[test]
    fn version_2_blob_is_invalid_data() {
        // the version 2 layout of a plain-PQ index: a variant byte (0)
        // between cb and dsub, and version 2 in the header
        let (_, buf) = saved_blob();
        let mut v2 = buf[..buf.len() - 8].to_vec();
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        v2.insert(24, 0);
        let err = load(&sealed(v2)[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported version 2"), "{err}");
    }
}
