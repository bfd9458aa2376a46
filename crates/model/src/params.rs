//! Named parameter collections shared by all model families.
//!
//! A [`ParamSet`] owns the model's weight tensors in a stable order; that
//! order is the contract between models, optimizers, the distributed
//! runtime (which flattens parameters for collectives and ZeRO sharding),
//! and checkpointed execution (which binds per-segment slices).

use matgnn_tensor::{Tape, Tensor, Var};

/// One named parameter tensor.
#[derive(Debug, Clone)]
pub struct ParamEntry {
    /// Hierarchical name, e.g. `layer3.phi_e.0.weight`.
    pub name: String,
    /// The parameter values.
    pub tensor: Tensor,
}

/// An ordered, named collection of parameter tensors.
///
/// # Examples
///
/// ```
/// use matgnn_model::ParamSet;
/// use matgnn_tensor::Tensor;
///
/// let mut params = ParamSet::new();
/// params.push("w", Tensor::ones((2, 3)));
/// params.push("b", Tensor::zeros(3usize));
/// assert_eq!(params.len(), 2);
/// assert_eq!(params.n_scalars(), 9);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParamSet {
    entries: Vec<ParamEntry>,
}

impl ParamSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ParamSet::default()
    }

    /// Appends a parameter; returns its index.
    pub fn push(&mut self, name: impl Into<String>, tensor: Tensor) -> usize {
        self.entries.push(ParamEntry {
            name: name.into(),
            tensor,
        });
        self.entries.len() - 1
    }

    /// Number of parameter tensors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn n_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.tensor.numel()).sum()
    }

    /// Total parameter bytes.
    pub fn bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.tensor.bytes() as u64).sum()
    }

    /// The entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn entry(&self, index: usize) -> &ParamEntry {
        &self.entries[index]
    }

    /// The tensor at `index`.
    pub fn tensor(&self, index: usize) -> &Tensor {
        &self.entries[index].tensor
    }

    /// Mutable access to the tensor at `index`.
    pub fn tensor_mut(&mut self, index: usize) -> &mut Tensor {
        &mut self.entries[index].tensor
    }

    /// Iterates over entries in order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &ParamEntry> {
        self.entries.iter()
    }

    /// Iterates mutably over entries in order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut ParamEntry> {
        self.entries.iter_mut()
    }

    /// Binds every parameter onto `tape` (as gradient-requiring leaves), in
    /// order.
    pub fn bind(&self, tape: &mut Tape) -> Vec<Var> {
        self.entries
            .iter()
            .map(|e| tape.param(e.tensor.clone()))
            .collect()
    }

    /// Binds every parameter onto `tape` as **constants** (no gradients) —
    /// the inference/evaluation path, which skips all backward bookkeeping.
    pub fn bind_frozen(&self, tape: &mut Tape) -> Vec<Var> {
        self.entries
            .iter()
            .map(|e| tape.constant(e.tensor.clone()))
            .collect()
    }

    /// Binds the half-open index range `[start, end)` onto `tape`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn bind_range(&self, tape: &mut Tape, start: usize, end: usize) -> Vec<Var> {
        self.entries[start..end]
            .iter()
            .map(|e| tape.param(e.tensor.clone()))
            .collect()
    }

    /// Concatenates all parameters into one flat vector (the layout used by
    /// collectives and ZeRO sharding).
    pub fn flatten(&self) -> Tensor {
        let mut data = Vec::with_capacity(self.n_scalars());
        for e in &self.entries {
            data.extend_from_slice(e.tensor.data());
        }
        Tensor::from_vec(data.len(), data).expect("flatten length")
    }

    /// Overwrites every parameter from a flat vector produced by
    /// [`flatten`](ParamSet::flatten) (same order and total length).
    ///
    /// # Panics
    ///
    /// Panics if `flat` has the wrong total length.
    pub fn unflatten_from(&mut self, flat: &Tensor) {
        assert_eq!(
            flat.numel(),
            self.n_scalars(),
            "flat vector length mismatch"
        );
        let src = flat.data();
        let mut offset = 0;
        for e in &mut self.entries {
            let n = e.tensor.numel();
            e.tensor
                .data_mut()
                .copy_from_slice(&src[offset..offset + n]);
            offset += n;
        }
    }

    /// Squared L2 norm over all parameters.
    pub fn norm_sq(&self) -> f32 {
        self.entries.iter().map(|e| e.tensor.norm_sq()).sum()
    }
}

impl FromIterator<ParamEntry> for ParamSet {
    fn from_iter<I: IntoIterator<Item = ParamEntry>>(iter: I) -> Self {
        ParamSet {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParamSet {
        let mut p = ParamSet::new();
        p.push(
            "a",
            Tensor::from_vec((2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
        );
        p.push("b", Tensor::from_vec(3usize, vec![5.0, 6.0, 7.0]).unwrap());
        p
    }

    #[test]
    fn counting() {
        let p = sample();
        assert_eq!(p.len(), 2);
        assert_eq!(p.n_scalars(), 7);
        assert_eq!(p.bytes(), 28);
        assert_eq!(p.entry(0).name, "a");
    }

    #[test]
    fn flatten_roundtrip() {
        let p = sample();
        let flat = p.flatten();
        assert_eq!(flat.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let mut q = sample();
        q.tensor_mut(0).fill(0.0);
        q.unflatten_from(&flat);
        assert_eq!(q.tensor(0).data(), p.tensor(0).data());
        assert_eq!(q.tensor(1).data(), p.tensor(1).data());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn unflatten_wrong_length_panics() {
        let mut p = sample();
        p.unflatten_from(&Tensor::zeros(3usize));
    }

    #[test]
    fn bind_preserves_order_and_values() {
        let p = sample();
        let mut tape = Tape::new();
        let vars = p.bind(&mut tape);
        assert_eq!(vars.len(), 2);
        assert_eq!(tape.value(vars[1]).data(), &[5.0, 6.0, 7.0]);
    }

    #[test]
    fn bind_range_subset() {
        let p = sample();
        let mut tape = Tape::new();
        let vars = p.bind_range(&mut tape, 1, 2);
        assert_eq!(vars.len(), 1);
        assert_eq!(tape.value(vars[0]).numel(), 3);
    }

    #[test]
    fn norm_sq_matches_manual() {
        let p = sample();
        let expect: f32 = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
            .iter()
            .map(|x| x * x)
            .sum();
        assert!((p.norm_sq() - expect).abs() < 1e-6);
    }
}
