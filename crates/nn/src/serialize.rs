//! Checkpoint (de)serialization for the model types, built on
//! `desh-util::codec`. Deployments train offline (phases 1-2) and run
//! inference online (phase 3), so models must round-trip through bytes.

use crate::dense::Dense;
use crate::embedding::Embedding;
use crate::lstm::LstmLayer;
use crate::mat::Mat;
use crate::models::{TokenLstm, VectorLstm};
use crate::param::Param;
use crate::stacked::StackedLstm;
use bytes::Bytes;
use desh_util::codec::{CodecError, Decoder, Encoder};

const MAGIC: [u8; 4] = *b"DSHM";
const VERSION: u32 = 1;

fn put_mat(e: &mut Encoder, m: &Mat) {
    e.put_u64(m.rows() as u64);
    e.put_u64(m.cols() as u64);
    e.put_f32_slice(m.data());
}

fn get_mat(d: &mut Decoder) -> Result<Mat, CodecError> {
    let rows = d.u64()? as usize;
    let cols = d.u64()? as usize;
    let data = d.f32_vec()?;
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(CodecError::BadShape(
            "matrix data does not match rows x cols",
        ));
    }
    Ok(Mat::from_vec(rows, cols, data))
}

fn put_param(e: &mut Encoder, p: &Param) {
    e.put_str(&p.name);
    put_mat(e, &p.w);
}

fn get_param(d: &mut Decoder) -> Result<Param, CodecError> {
    let name = d.string()?;
    let w = get_mat(d)?;
    let g = Mat::zeros(w.rows(), w.cols());
    Ok(Param { w, g, name })
}

fn put_dense(e: &mut Encoder, layer: &Dense) {
    put_param(e, &layer.w);
    put_param(e, &layer.b);
}

fn get_dense(d: &mut Decoder) -> Result<Dense, CodecError> {
    Ok(Dense {
        w: get_param(d)?,
        b: get_param(d)?,
    })
}

fn put_lstm_layer(e: &mut Encoder, layer: &LstmLayer) {
    e.put_u64(layer.input_dim() as u64);
    e.put_u64(layer.hidden_dim() as u64);
    put_param(e, &layer.wx);
    put_param(e, &layer.wh);
    put_param(e, &layer.b);
}

fn get_lstm_layer(d: &mut Decoder) -> Result<LstmLayer, CodecError> {
    let input = d.u64()? as usize;
    let hidden = d.u64()? as usize;
    let wx = get_param(d)?;
    let wh = get_param(d)?;
    let b = get_param(d)?;
    LstmLayer::from_params(wx, wh, b)
        .filter(|l| l.input_dim() == input && l.hidden_dim() == hidden)
        .ok_or(CodecError::BadShape(
            "LSTM layer weights do not fit its widths",
        ))
}

fn put_stacked(e: &mut Encoder, net: &StackedLstm) {
    e.put_u64(net.layers.len() as u64);
    for l in &net.layers {
        put_lstm_layer(e, l);
    }
    put_dense(e, &net.head);
}

fn get_stacked(d: &mut Decoder) -> Result<StackedLstm, CodecError> {
    // Nothing is preallocated from the stored count: a corrupt count
    // fails on the first layer the stream does not hold.
    let n = d.u64()?;
    let mut layers: Vec<LstmLayer> = Vec::new();
    for _ in 0..n {
        let layer = get_lstm_layer(d)?;
        if let Some(below) = layers.last() {
            if layer.input_dim() != below.hidden_dim() || layer.hidden_dim() != below.hidden_dim() {
                return Err(CodecError::BadShape("stacked LSTM layer widths differ"));
            }
        }
        layers.push(layer);
    }
    let head = get_dense(d)?;
    let fits = layers
        .first()
        .is_some_and(|l| head.w.w.rows() == l.hidden_dim())
        && head.b.w.shape() == (1, head.w.w.cols());
    if !fits {
        return Err(CodecError::BadShape("head does not fit the top LSTM layer"));
    }
    Ok(StackedLstm { layers, head })
}

impl TokenLstm {
    /// Serialize weights to bytes.
    pub fn to_bytes(&self) -> Bytes {
        let mut e = Encoder::with_header(MAGIC, VERSION);
        e.put_u8(1); // model kind tag
        put_mat(&mut e, &self.embed.table.w);
        put_stacked(&mut e, &self.net);
        e.finish()
    }

    /// Restore from bytes produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: Bytes) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(MAGIC, VERSION)?;
        let kind = d.u8()?;
        if kind != 1 {
            return Err(CodecError::BadMagic {
                expected: [1, 0, 0, 0],
                found: [kind, 0, 0, 0],
            });
        }
        let table = get_mat(&mut d)?;
        let net = get_stacked(&mut d)?;
        if net.input_dim() != table.cols() || net.output_dim() != table.rows() {
            return Err(CodecError::BadShape(
                "network does not fit the embedding table",
            ));
        }
        Ok(Self {
            embed: Embedding::from_table(table),
            net,
        })
    }
}

impl VectorLstm {
    /// Serialize weights to bytes.
    pub fn to_bytes(&self) -> Bytes {
        let mut e = Encoder::with_header(MAGIC, VERSION);
        e.put_u8(2);
        e.put_u64(self.dim() as u64);
        put_stacked(&mut e, &self.net);
        e.finish()
    }

    /// Restore from bytes produced by [`Self::to_bytes`].
    pub fn from_bytes(bytes: Bytes) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        d.expect_header(MAGIC, VERSION)?;
        let kind = d.u8()?;
        if kind != 2 {
            return Err(CodecError::BadMagic {
                expected: [2, 0, 0, 0],
                found: [kind, 0, 0, 0],
            });
        }
        let dim = d.u64()?;
        let net = get_stacked(&mut d)?;
        if net.input_dim() as u64 != dim || net.output_dim() as u64 != dim {
            return Err(CodecError::BadShape(
                "network width does not match the sample width",
            ));
        }
        Ok(VectorLstm {
            net,
            dim: dim as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desh_util::Xoshiro256pp;

    #[test]
    fn token_lstm_round_trip_preserves_outputs() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let m = TokenLstm::new(9, 6, 10, 2, &mut rng);
        let bytes = m.to_bytes();
        let m2 = TokenLstm::from_bytes(bytes).unwrap();
        let ctx = [1u32, 4, 7, 2];
        assert_eq!(m.predict_probs(&ctx), m2.predict_probs(&ctx));
    }

    #[test]
    fn vector_lstm_round_trip_preserves_outputs() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let m = VectorLstm::new(2, 8, 2, &mut rng);
        let bytes = m.to_bytes();
        let m2 = VectorLstm::from_bytes(bytes).unwrap();
        let w: Vec<&[f32]> = vec![&[0.2, 0.8], &[0.1, 0.9]];
        assert_eq!(m.predict_next(&w, 5), m2.predict_next(&w, 5));
    }

    #[test]
    fn wrong_kind_tag_rejected() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let token = TokenLstm::new(4, 3, 4, 1, &mut rng);
        let bytes = token.to_bytes();
        assert!(VectorLstm::from_bytes(bytes).is_err());
    }

    /// `VectorLstm` bytes with the given sample width, layer list and head.
    fn vector_bytes(dim: u64, layers: &[LstmLayer], head: &Dense) -> Bytes {
        let mut e = Encoder::with_header(MAGIC, VERSION);
        e.put_u8(2);
        e.put_u64(dim);
        e.put_u64(layers.len() as u64);
        for l in layers {
            put_lstm_layer(&mut e, l);
        }
        put_dense(&mut e, head);
        e.finish()
    }

    #[test]
    fn inconsistent_shapes_rejected() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let m = VectorLstm::new(3, 4, 2, &mut rng);
        let (layers, head) = (&m.net.layers, &m.net.head);
        assert!(VectorLstm::from_bytes(vector_bytes(3, layers, head)).is_ok());
        // Sample width disagrees with the bottom layer.
        assert!(VectorLstm::from_bytes(vector_bytes(4, layers, head)).is_err());
        // No layers at all, a valid head after the count.
        assert!(VectorLstm::from_bytes(vector_bytes(3, &[], head)).is_err());
        // Layers whose widths do not chain.
        let wide = LstmLayer::new(4, 5, "wide", &mut rng);
        let unchained = [layers[0].clone(), wide];
        assert!(VectorLstm::from_bytes(vector_bytes(3, &unchained, head)).is_err());
        // A head that does not fit the top layer.
        let other = Dense::new(5, 3, "head", &mut rng);
        assert!(VectorLstm::from_bytes(vector_bytes(3, layers, &other)).is_err());
        // A stored layer width that disagrees with its weights, and a
        // layer count far beyond the stream.
        for (at, v) in [(25, 4), (17, u64::MAX)] {
            let mut raw = vector_bytes(3, layers, head).to_vec();
            raw[at..at + 8].copy_from_slice(&v.to_le_bytes());
            assert!(VectorLstm::from_bytes(raw.into()).is_err(), "byte {at}");
        }
    }

    #[test]
    fn truncated_checkpoint_rejected() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let m = VectorLstm::new(2, 4, 1, &mut rng);
        let bytes = m.to_bytes();
        let cut = bytes.slice(0..bytes.len() / 2);
        assert!(VectorLstm::from_bytes(cut).is_err());
    }
}
