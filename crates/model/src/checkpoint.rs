//! Model checkpointing: serialize parameters (and EGNN configs) to a
//! compact binary format.
//!
//! The paper's headline deliverable is a *foundational model* — a trained
//! artifact downstream users load and fine-tune. This module provides that
//! artifact format: a versioned, named-tensor container
//! (`MGNN` magic + name/shape/data records) plus typed save/load for the
//! [`Egnn`], used by the transfer-learning experiment.

use std::fmt;
use std::path::Path;

use matgnn_tensor::bytes::{ByteReader, PutBe};
use matgnn_tensor::{Shape, Tensor};

use crate::{Egnn, EgnnConfig, GnnModel, ParamSet};

const MAGIC: &[u8; 4] = b"MGNN";
const VERSION: u32 = 1;

/// Error while reading a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with the `MGNN` magic.
    BadMagic,
    /// The format version is unsupported.
    BadVersion(u32),
    /// The buffer ended before the declared content.
    Truncated,
    /// A name was not valid UTF-8.
    BadName,
    /// A stored entry does not match the receiving model
    /// (name or shape mismatch at the given index).
    Mismatch {
        /// Entry index that disagreed.
        index: usize,
        /// What disagreed.
        detail: String,
    },
    /// The stored model config describes no model this checkpoint can
    /// hold: a zero width or depth, or more parameters than the bytes
    /// that follow.
    BadConfig(String),
    /// An I/O error (when reading/writing files).
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a matgnn checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint buffer truncated"),
            CheckpointError::BadName => write!(f, "invalid parameter name encoding"),
            CheckpointError::Mismatch { index, detail } => {
                write!(f, "parameter {index} mismatch: {detail}")
            }
            CheckpointError::BadConfig(detail) => write!(f, "invalid model config: {detail}"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serializes a parameter set: names, shapes, and raw f32 data.
pub fn params_to_bytes(params: &ParamSet) -> Vec<u8> {
    let mut buf = MAGIC.to_vec();
    buf.put_u32(VERSION);
    buf.put_u32(params.len() as u32);
    for entry in params.iter() {
        let name = entry.name.as_bytes();
        buf.put_u32(name.len() as u32);
        buf.extend_from_slice(name);
        let shape = entry.tensor.shape();
        buf.put_u32(shape.rank() as u32);
        for &d in shape.dims() {
            buf.put_u32(d as u32);
        }
        for &v in entry.tensor.data() {
            buf.put_f32(v);
        }
    }
    buf
}

/// Deserializes a parameter set written by [`params_to_bytes`].
///
/// # Errors
///
/// Returns a [`CheckpointError`] on malformed input.
pub fn params_from_bytes(data: &[u8]) -> Result<ParamSet, CheckpointError> {
    use CheckpointError::Truncated;
    let mut buf = ByteReader::new(data);
    if buf.take(4).ok_or(Truncated)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = buf.get_u32().ok_or(Truncated)?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let count = buf.get_u32().ok_or(Truncated)? as usize;
    let mut params = ParamSet::new();
    for _ in 0..count {
        let name_len = buf.get_u32().ok_or(Truncated)? as usize;
        let name = buf.take(name_len).ok_or(Truncated)?;
        let name = String::from_utf8(name.to_vec()).map_err(|_| CheckpointError::BadName)?;
        let rank = buf.get_u32().ok_or(Truncated)? as usize;
        let dims = (0..rank)
            .map(|_| buf.get_u32().map(|d| d as usize))
            .collect::<Option<Vec<usize>>>()
            .ok_or(Truncated)?;
        let shape = Shape::new(dims);
        let data = (0..shape.numel())
            .map(|_| buf.get_f32())
            .collect::<Option<Vec<f32>>>()
            .ok_or(Truncated)?;
        params.push(
            name,
            Tensor::from_vec(shape, data).expect("validated length"),
        );
    }
    Ok(params)
}

/// Loads stored parameters into an existing set, verifying that names and
/// shapes line up entry by entry.
///
/// # Errors
///
/// Returns [`CheckpointError::Mismatch`] on any disagreement (the set is
/// left partially updated only on success paths — verification happens
/// before any write).
pub fn load_params_into(params: &mut ParamSet, data: &[u8]) -> Result<(), CheckpointError> {
    let loaded = params_from_bytes(data)?;
    if loaded.len() != params.len() {
        return Err(CheckpointError::Mismatch {
            index: loaded.len().min(params.len()),
            detail: format!("entry count {} vs {}", loaded.len(), params.len()),
        });
    }
    for (i, (a, b)) in loaded.iter().zip(params.iter()).enumerate() {
        if a.name != b.name {
            return Err(CheckpointError::Mismatch {
                index: i,
                detail: format!("name {} vs {}", a.name, b.name),
            });
        }
        if a.tensor.shape() != b.tensor.shape() {
            return Err(CheckpointError::Mismatch {
                index: i,
                detail: format!("shape {} vs {}", a.tensor.shape(), b.tensor.shape()),
            });
        }
    }
    for (i, entry) in params.iter_mut().enumerate() {
        entry.tensor = loaded.tensor(i).clone();
    }
    Ok(())
}

/// A fully self-describing EGNN checkpoint: config + parameters.
pub fn egnn_to_bytes(model: &Egnn) -> Vec<u8> {
    let cfg = model.config();
    let mut buf = b"EGNN".to_vec();
    buf.put_u32(VERSION);
    buf.put_u32(cfg.node_feat_dim as u32);
    buf.put_u32(cfg.hidden_dim as u32);
    buf.put_u32(cfg.n_layers as u32);
    buf.put_u8(cfg.residual as u8);
    buf.put_u8(cfg.update_coords as u8);
    buf.put_u8(cfg.edge_gate as u8);
    buf.put_u8(cfg.layer_norm as u8);
    buf.put_u32(cfg.n_rbf as u32);
    buf.put_u64(cfg.seed);
    buf.extend_from_slice(&params_to_bytes(model.params()));
    buf
}

/// Reconstructs an EGNN (config + weights) from [`egnn_to_bytes`] output.
///
/// # Errors
///
/// Returns a [`CheckpointError`] on malformed input or a parameter layout
/// that no longer matches the config (version skew). A corrupted config is
/// rejected as [`CheckpointError::BadConfig`] before the model is built.
pub fn egnn_from_bytes(data: &[u8]) -> Result<Egnn, CheckpointError> {
    use CheckpointError::Truncated;
    let mut buf = ByteReader::new(data);
    if buf.take(4).ok_or(Truncated)? != b"EGNN" {
        return Err(CheckpointError::BadMagic);
    }
    let version = buf.get_u32().ok_or(Truncated)?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let cfg = EgnnConfig {
        node_feat_dim: buf.get_u32().ok_or(Truncated)? as usize,
        hidden_dim: buf.get_u32().ok_or(Truncated)? as usize,
        n_layers: buf.get_u32().ok_or(Truncated)? as usize,
        residual: buf.get_u8().ok_or(Truncated)? != 0,
        update_coords: buf.get_u8().ok_or(Truncated)? != 0,
        edge_gate: buf.get_u8().ok_or(Truncated)? != 0,
        layer_norm: buf.get_u8().ok_or(Truncated)? != 0,
        n_rbf: buf.get_u32().ok_or(Truncated)? as usize,
        seed: buf.get_u64().ok_or(Truncated)?,
    };
    check_header(&cfg, buf.remaining().len())?;
    let mut model = Egnn::new(cfg);
    load_params_into(model.params_mut(), buf.remaining())?;
    Ok(model)
}

/// Rejects a stored config before anything is allocated for it: a zero
/// width or depth, which [`Egnn::new`] refuses, or more parameters than
/// the `payload` bytes that follow can hold at 4 bytes each, which a
/// corrupted width or depth produces.
fn check_header(cfg: &EgnnConfig, payload: usize) -> Result<(), CheckpointError> {
    let (h, l) = (cfg.hidden_dim, cfg.n_layers);
    if h == 0 || l == 0 {
        return Err(CheckpointError::BadConfig(format!(
            "hidden_dim {h} and n_layers {l} must be positive"
        )));
    }
    match cfg.checked_param_count() {
        Some(n) if n <= payload / 4 => Ok(()),
        _ => Err(CheckpointError::BadConfig(format!(
            "hidden_dim {h} and n_layers {l} need more parameters than the \
             {payload} bytes that follow hold"
        ))),
    }
}

/// Writes an EGNN checkpoint to a file.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on filesystem errors.
pub fn save_egnn(model: &Egnn, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    std::fs::write(path, egnn_to_bytes(model)).map_err(|e| CheckpointError::Io(e.to_string()))
}

/// Reads an EGNN checkpoint from a file.
///
/// # Errors
///
/// Returns a [`CheckpointError`] on filesystem or format errors.
pub fn load_egnn(path: impl AsRef<Path>) -> Result<Egnn, CheckpointError> {
    let data = std::fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
    egnn_from_bytes(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::init_rng;

    fn random_params() -> ParamSet {
        let mut rng = init_rng(7);
        let mut p = ParamSet::new();
        p.push("a.weight", Tensor::randn((3, 4), 1.0, &mut rng));
        p.push("a.bias", Tensor::randn(4usize, 1.0, &mut rng));
        p.push("scalarish", Tensor::scalar(rng.gen()));
        p
    }

    #[test]
    fn params_roundtrip_exact() {
        let p = random_params();
        let bytes = params_to_bytes(&p);
        let q = params_from_bytes(&bytes).unwrap();
        assert_eq!(q.len(), p.len());
        for (a, b) in p.iter().zip(q.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.tensor.shape(), b.tensor.shape());
            assert_eq!(a.tensor.data(), b.tensor.data());
        }
    }

    #[test]
    fn load_into_verifies_layout() {
        let p = random_params();
        let bytes = params_to_bytes(&p);
        // Same layout: loads fine.
        let mut q = random_params();
        q.tensor_mut(0).fill(0.0);
        load_params_into(&mut q, &bytes).unwrap();
        assert_eq!(q.tensor(0).data(), p.tensor(0).data());
        // Different shape: rejected before any write.
        let mut bad = ParamSet::new();
        bad.push("a.weight", Tensor::zeros((4, 3)));
        bad.push("a.bias", Tensor::zeros(4usize));
        bad.push("scalarish", Tensor::scalar(0.0));
        let err = load_params_into(&mut bad, &bytes).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Mismatch { index: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn corrupt_inputs_rejected() {
        let p = random_params();
        let bytes = params_to_bytes(&p);
        assert_eq!(
            params_from_bytes(b"nope0000").unwrap_err(),
            CheckpointError::BadMagic
        );
        assert_eq!(
            params_from_bytes(b"no").unwrap_err(),
            CheckpointError::Truncated
        );
        let cut = &bytes[..bytes.len() / 2];
        assert_eq!(
            params_from_bytes(cut).unwrap_err(),
            CheckpointError::Truncated
        );
        let mut wrong_version = bytes.to_vec();
        wrong_version[4..8].copy_from_slice(&99u32.to_be_bytes());
        assert_eq!(
            params_from_bytes(&wrong_version).unwrap_err(),
            CheckpointError::BadVersion(99)
        );
    }

    #[test]
    fn egnn_roundtrip_preserves_predictions() {
        use matgnn_graph::{AtomicStructure, Element, GraphBatch, MolGraph};
        use matgnn_tensor::Tape;

        let model = Egnn::new(EgnnConfig::new(8, 2).with_seed(21).with_residual(true));
        let bytes = egnn_to_bytes(&model);
        let loaded = egnn_from_bytes(&bytes).unwrap();
        assert_eq!(loaded.config(), model.config());

        let s = AtomicStructure::new(
            vec![Element::C, Element::O, Element::H],
            vec![[0.0, 0.0, 0.0], [1.2, 0.0, 0.0], [-0.5, 0.9, 0.0]],
        )
        .unwrap();
        let g = MolGraph::from_structure(&s, 3.0);
        let batch = GraphBatch::from_graphs(&[&g]);
        let run = |m: &Egnn| {
            let mut tape = Tape::new();
            let (_, out) = m.bind_and_forward(&mut tape, &batch);
            tape.value(out.energy).clone()
        };
        assert!(
            run(&model).allclose(&run(&loaded), 0.0),
            "predictions drifted"
        );
    }

    #[test]
    fn egnn_file_roundtrip() {
        let model = Egnn::new(EgnnConfig::new(6, 2).with_seed(5));
        let dir = std::env::temp_dir().join("matgnn_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.mgnn");
        save_egnn(&model, &path).unwrap();
        let loaded = load_egnn(&path).unwrap();
        assert!(model
            .params()
            .flatten()
            .allclose(&loaded.params().flatten(), 0.0));
        std::fs::remove_file(&path).ok();
    }

    /// `bytes` with the big-endian `u32` header field at `offset` replaced:
    /// 12 is `hidden_dim`, 16 is `n_layers`.
    fn with_header_u32(bytes: &[u8], offset: usize, value: u32) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[offset..offset + 4].copy_from_slice(&value.to_be_bytes());
        out
    }

    #[test]
    fn zero_width_or_depth_header_is_an_error() {
        let bytes = egnn_to_bytes(&Egnn::new(EgnnConfig::new(8, 2)));
        for offset in [12, 16] {
            let err = egnn_from_bytes(&with_header_u32(&bytes, offset, 0)).unwrap_err();
            assert!(matches!(err, CheckpointError::BadConfig(_)), "{err}");
        }
    }

    #[test]
    fn oversized_header_is_an_error_before_building() {
        let bytes = egnn_to_bytes(&Egnn::new(EgnnConfig::new(8, 2)));
        // A width of 2²⁰ needs ~2⁴² bytes of weights; u32::MAX overflows
        // the parameter count; a depth of u32::MAX needs ~2⁴¹ bytes.
        for (offset, value) in [(12, 1 << 20), (12, u32::MAX), (16, u32::MAX)] {
            let err = egnn_from_bytes(&with_header_u32(&bytes, offset, value)).unwrap_err();
            assert!(matches!(err, CheckpointError::BadConfig(_)), "{err}");
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_egnn("/nonexistent/matgnn.ckpt").unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
