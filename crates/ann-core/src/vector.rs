//! Dense row-major vector set containers.
//!
//! A `VecSet<T>` stores `len` vectors of a fixed dimension contiguously,
//! which is the layout every kernel in this workspace assumes (sequential
//! cluster scans are what give IVF its memory-bandwidth-friendly profile).

/// Element types storable in a [`VecSet`].
pub trait Scalar: Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static {
    /// Narrow from `f32`, saturating to the representable range.
    fn from_f32(x: f32) -> Self;
}

impl Scalar for f32 {
    #[inline]
    fn from_f32(x: f32) -> Self {
        x
    }
}

impl Scalar for u8 {
    #[inline]
    fn from_f32(x: f32) -> Self {
        x.round().clamp(0.0, 255.0) as u8
    }
}

impl Scalar for i8 {
    #[inline]
    fn from_f32(x: f32) -> Self {
        x.round().clamp(-128.0, 127.0) as i8
    }
}

impl Scalar for u16 {
    #[inline]
    fn from_f32(x: f32) -> Self {
        x.round().clamp(0.0, 65535.0) as u16
    }
}

/// A set of `len` vectors of dimension `dim`, stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct VecSet<T> {
    dim: usize,
    data: Vec<T>,
}

impl<T: Scalar> VecSet<T> {
    /// Empty set of the given dimension.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        VecSet {
            dim,
            data: Vec::new(),
        }
    }

    /// Empty set with capacity for `n` vectors.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        VecSet {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Wrap an existing flat buffer; `data.len()` must be a multiple of
    /// `dim`.
    pub fn from_flat(dim: usize, data: Vec<T>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(
            data.len() % dim,
            0,
            "flat buffer length {} not a multiple of dim {}",
            data.len(),
            dim
        );
        VecSet { dim, data }
    }

    /// Set filled with zeros (default scalar).
    pub fn zeros(dim: usize, n: usize) -> Self {
        VecSet {
            dim,
            data: vec![T::default(); dim * n],
        }
    }

    /// Vector dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True when the set holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The `i`-th vector as a slice.
    #[inline]
    pub fn get(&self, i: usize) -> &[T] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable access to the `i`-th vector.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Append one vector; its length must equal `dim`.
    pub fn push(&mut self, v: &[T]) {
        assert_eq!(v.len(), self.dim, "pushed vector has wrong dimension");
        self.data.extend_from_slice(v);
    }

    /// Iterate over vectors.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// The whole backing buffer.
    #[inline]
    pub fn as_flat(&self) -> &[T] {
        &self.data
    }

    /// Consume into the backing buffer.
    pub fn into_flat(self) -> Vec<T> {
        self.data
    }

    /// Gather a subset of rows into a new set.
    pub fn select(&self, rows: &[usize]) -> VecSet<T> {
        let mut out = VecSet::with_capacity(self.dim, rows.len());
        for &r in rows {
            out.push(self.get(r));
        }
        out
    }
}

impl VecSet<f32> {
    /// Convert to another scalar type by rounding/saturating.
    pub fn quantize_cast<U: Scalar>(&self) -> VecSet<U> {
        VecSet {
            dim: self.dim,
            data: self.data.iter().map(|&x| U::from_f32(x)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut s = VecSet::<f32>::new(3);
        s.push(&[1.0, 2.0, 3.0]);
        s.push(&[4.0, 5.0, 6.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn push_wrong_dim_panics() {
        let mut s = VecSet::<f32>::new(3);
        s.push(&[1.0]);
    }

    #[test]
    fn from_flat_validates() {
        let s = VecSet::from_flat(2, vec![1u8, 2, 3, 4]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_rejects_ragged() {
        let _ = VecSet::from_flat(3, vec![1u8, 2, 3, 4]);
    }

    #[test]
    fn select_gathers_rows() {
        let s = VecSet::from_flat(1, vec![10.0f32, 20.0, 30.0]);
        let sub = s.select(&[2, 0]);
        assert_eq!(sub.as_flat(), &[30.0, 10.0]);
    }

    #[test]
    fn scalar_saturation() {
        assert_eq!(u8::from_f32(300.0), 255);
        assert_eq!(u8::from_f32(-5.0), 0);
        assert_eq!(i8::from_f32(200.0), 127);
        assert_eq!(u16::from_f32(70000.0), 65535);
        assert_eq!(u8::from_f32(1.4), 1);
        assert_eq!(u8::from_f32(1.6), 2);
    }

    #[test]
    fn f32_u8_conversion_rounds() {
        let f = VecSet::from_flat(2, vec![1.2f32, 250.7, 0.0, 99.5]);
        let q: VecSet<u8> = f.quantize_cast();
        assert_eq!(q.as_flat(), &[1, 251, 0, 100]);
    }

    #[test]
    fn iter_matches_get() {
        let s = VecSet::from_flat(2, vec![1u8, 2, 3, 4, 5, 6]);
        let rows: Vec<&[u8]> = s.iter().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], s.get(2));
    }

    #[test]
    fn zeros_is_all_default() {
        let z = VecSet::<u16>::zeros(4, 2);
        assert_eq!(z.len(), 2);
        assert!(z.as_flat().iter().all(|&x| x == 0));
    }
}
