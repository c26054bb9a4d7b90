//! Minimal binary (de)serialisation for tensors, used by checkpointing.
//!
//! Format (little-endian): magic `b"CQT1"`, `u32` rank, `u64` per axis
//! length, then `f32` data. No external serialisation crate is needed.

use std::io::{Read, Write};

use crate::{Result, Tensor, TensorError};

const MAGIC: &[u8; 4] = b"CQT1";

/// Writes a tensor to `w` in the `CQT1` binary format.
///
/// A `&mut` reference can be passed as the writer.
///
/// # Errors
///
/// Propagates underlying I/O errors as [`TensorError::Io`].
pub fn write_tensor<W: Write>(mut w: W, t: &Tensor) -> Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&(t.rank() as u32).to_le_bytes())?;
    for &d in t.dims() {
        w.write_all(&(d as u64).to_le_bytes())?;
    }
    for &v in t.as_slice() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Reads a tensor from `r` in the `CQT1` binary format.
///
/// A `&mut` reference can be passed as the reader.
///
/// # Errors
///
/// Returns [`TensorError::Io`] on malformed input (bad magic, truncated
/// data, or absurd rank).
pub fn read_tensor<R: Read>(mut r: R) -> Result<Tensor> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(TensorError::Io(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    let mut rank_buf = [0u8; 4];
    r.read_exact(&mut rank_buf)?;
    let rank = u32::from_le_bytes(rank_buf) as usize;
    if rank > 16 {
        return Err(TensorError::Io(format!("implausible rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        dims.push(u64::from_le_bytes(b) as usize);
    }
    let len = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .filter(|&len| len <= 1 << 31)
        .ok_or_else(|| TensorError::Io(format!("implausible shape {dims:?}")))?;
    let mut data = vec![0.0f32; len];
    let mut buf = [0u8; 4];
    for v in &mut data {
        r.read_exact(&mut buf)?;
        *v = f32::from_le_bytes(buf);
    }
    Tensor::from_vec(data, &dims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_shape_and_data() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let t = Tensor::randn(&[2, 3, 4], 0.0, 1.0, &mut rng);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        let back = read_tensor(buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn scalar_round_trip() {
        let t = Tensor::scalar(4.25);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        let back = read_tensor(buf.as_slice()).unwrap();
        assert_eq!(back.item(), 4.25);
        assert_eq!(back.rank(), 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE\x00\x00\x00\x00".to_vec();
        assert!(matches!(
            read_tensor(buf.as_slice()),
            Err(TensorError::Io(_))
        ));
    }

    #[test]
    fn truncated_data_rejected() {
        let t = Tensor::ones(&[4]);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_tensor(buf.as_slice()).is_err());
    }

    #[test]
    fn overflowing_shape_rejected() {
        // dims [2^33, 2^33]: the element count overflows usize
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&2u32.to_le_bytes());
        for _ in 0..2 {
            buf.extend_from_slice(&(1u64 << 33).to_le_bytes());
        }
        assert!(matches!(
            read_tensor(buf.as_slice()),
            Err(TensorError::Io(_))
        ));
    }

    #[test]
    fn implausible_rank_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&100u32.to_le_bytes());
        assert!(read_tensor(buf.as_slice()).is_err());
    }
}
