//! Measured-throughput cost curve: a rate-vs-flops table probed from
//! the one packed GEMM kernel, used instead of the single scalar
//! `flops_per_sec`.
//!
//! The analytical model's CPU term divides flops by one rate, which
//! pretends a 64³ product and a 1024³ product run at the same
//! GFLOP/s — they do not (packing overheads dominate small products,
//! cache effects bend the middle). [`ThroughputCurve::measure`] times
//! `DenseMatrix::matmul_packed` on a fixed table of shapes,
//! [`ThroughputCurve`] interpolates the samples monotonically in
//! log-flops space, and [`CurveCostModel`] scales the cluster's flop
//! rate by the curve's relative throughput at each operator's flop
//! volume. The curve persists as one checksummed frame in
//! `kernels.tune` ([`ThroughputCurve::save`] /
//! [`ThroughputCurve::load`]); nothing reads it unless a caller hands
//! a [`CurveCostModel`] to the optimizer.
//!
//! Known coarseness: `OpKind::MatMul` covers both dense and sparse
//! products, and [`crate::CostFeatures`] carries no shape fields — so
//! the curve is indexed by flop volume alone and probed on dense
//! products only.

use crate::{AnalyticalCostModel, CostModel};
use matopt_core::{
    write_atomic, Cluster, CostFeatures, FrameReader, Framing, OpKind, TransformKind, WireError,
};
use std::io;
use std::path::Path;
use std::time::Instant;

/// File name of the persisted curve (lives next to `plans.mcache`).
pub const CURVE_FILE: &str = "kernels.tune";

/// Magic of [`CURVE_FILE`]'s one frame. Earlier `MTUN` files (the
/// retired autotuner catalog `MTUN0001`, the unframed curve record
/// `MTUN0002`) are recognised only to say what to do about them.
const MAGIC: &[u8; 8] = b"MTUN0003";
const FRAMING: Framing = Framing::persisted(MAGIC);

/// Tag of the one frame a curve file holds.
const TAG_CURVE: u64 = 1;

/// Most points a persisted curve may carry; a count past this is
/// corruption, not a big curve.
const MAX_POINTS: usize = 64;

/// The `m×k·k×n` products [`ThroughputCurve::measure`] times: squares
/// across the packed kernel's working range plus skinny, wide and
/// deep-k shapes, each dimension capped at 768 so the whole probe
/// stays under a second.
const PROBE_SHAPES: [(usize, usize, usize); 8] = [
    (96, 96, 96),
    (256, 256, 256),
    (512, 512, 512),
    (768, 768, 768),
    (768, 64, 768),
    (768, 384, 48),
    (48, 384, 768),
    (192, 768, 192),
];

/// A usable `(flops, GFLOP/s)` sample: both finite and positive.
fn is_sample((flops, gflops): &(f64, f64)) -> bool {
    flops.is_finite() && gflops.is_finite() && *flops > 0.0 && *gflops > 0.0
}

/// A measured rate-vs-flops curve: `(flop volume, GFLOP/s)` samples,
/// interpolated piecewise-linearly in log-flops space and clamped at
/// the ends.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThroughputCurve {
    /// Strictly ascending in flops; rates are per-sample means when
    /// several probe shapes share a flop volume.
    points: Vec<(f64, f64)>,
}

impl ThroughputCurve {
    /// An empty curve: [`CurveCostModel`] degenerates to the
    /// analytical model.
    pub fn empty() -> ThroughputCurve {
        ThroughputCurve::default()
    }

    /// Builds the curve from explicit `(flops, gflops)` samples,
    /// dropping non-finite or non-positive ones and averaging samples
    /// that share a flop volume.
    pub fn from_samples(samples: &[(f64, f64)]) -> ThroughputCurve {
        let mut pts: Vec<(f64, f64)> = samples.iter().copied().filter(is_sample).collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut merged: Vec<(f64, f64, usize)> = Vec::new();
        for (f, g) in pts {
            match merged.last_mut() {
                Some((mf, mg, n)) if *mf == f => {
                    *mg += g;
                    *n += 1;
                }
                _ => merged.push((f, g, 1)),
            }
        }
        ThroughputCurve {
            points: merged
                .into_iter()
                .map(|(f, g, n)| (f, g / n as f64))
                .collect(),
        }
    }

    /// Probes the packed GEMM kernel on a fixed table of eight shapes
    /// (squares 96³–768³ plus skinny, wide and deep-k products): per
    /// shape one warm-up multiply, then the best of three timed ones
    /// (scheduler noise only ever adds time), on matrices seeded by the
    /// shape.
    pub fn measure() -> ThroughputCurve {
        ThroughputCurve::probe(&PROBE_SHAPES)
    }

    fn probe(shapes: &[(usize, usize, usize)]) -> ThroughputCurve {
        let samples: Vec<(f64, f64)> = shapes
            .iter()
            .map(|&(m, k, n)| {
                let mut rng = matopt_kernels::seeded_rng((m * 31 + k) as u64 * 31 + n as u64);
                let a = matopt_kernels::random_dense_normal(m, k, &mut rng);
                let b = matopt_kernels::random_dense_normal(k, n, &mut rng);
                std::hint::black_box(a.matmul_packed(&b));
                let mut best = f64::INFINITY;
                for _ in 0..3 {
                    let t = Instant::now();
                    std::hint::black_box(a.matmul_packed(&b));
                    best = best.min(t.elapsed().as_secs_f64());
                }
                let flops = 2.0 * m as f64 * k as f64 * n as f64;
                (flops, flops / best.max(1e-9) / 1e9)
            })
            .collect();
        ThroughputCurve::from_samples(&samples)
    }

    /// The curve as the one frame of [`CURVE_FILE`]: its body is the
    /// `(flops_bits, gflops_bits)` pairs, flops-ascending.
    fn encode(&self) -> Vec<u8> {
        let body: Vec<u64> = self
            .points
            .iter()
            .flat_map(|(f, g)| [f.to_bits(), g.to_bits()])
            .collect();
        FRAMING.frame_bytes(TAG_CURVE, &body)
    }

    /// Decodes [`ThroughputCurve::encode`]'s bytes, all or nothing: one
    /// frame that verifies, then end of file, and every sample finite,
    /// positive and strictly flops-ascending — so a damaged file is
    /// rejected, never partially believed.
    fn decode(bytes: &[u8]) -> Result<ThroughputCurve, String> {
        if let Some(found) = bytes.first_chunk::<8>() {
            if found.starts_with(b"MTUN") && found != MAGIC {
                return Err(format!(
                    "an earlier kernels.tune format ({}), which is no longer read; \
                     re-run `matopt tune --out <dir>` to write a measured curve",
                    String::from_utf8_lossy(found)
                ));
            }
        }
        let mut frames = FrameReader::with_framing(FRAMING, bytes);
        let frame = frames.read_frame().map_err(|e| e.to_string())?;
        if !matches!(frames.read_frame(), Err(WireError::Eof)) {
            return Err("bytes after the curve frame".to_string());
        }
        if frame.tag != TAG_CURVE {
            return Err(format!("unknown frame tag {}", frame.tag));
        }
        let (pairs, odd) = frame.body.as_chunks::<2>();
        if !odd.is_empty() || pairs.len() > MAX_POINTS {
            return Err(format!("not a list of at most {MAX_POINTS} points"));
        }
        let points: Vec<(f64, f64)> = pairs
            .iter()
            .map(|[f, g]| (f64::from_bits(*f), f64::from_bits(*g)))
            .collect();
        if !(points.iter().all(is_sample) && points.windows(2).all(|w| w[0].0 < w[1].0)) {
            return Err("non-finite, non-positive or unordered sample".to_string());
        }
        Ok(ThroughputCurve { points })
    }

    /// Writes the curve to `<dir>/kernels.tune` atomically
    /// ([`write_atomic`], creating `dir` if needed): a crash mid-write
    /// leaves the previous file intact.
    ///
    /// # Errors
    /// Refuses curves over 64 points; propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        if self.points.len() > MAX_POINTS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("curve has {} points, over {MAX_POINTS}", self.points.len()),
            ));
        }
        std::fs::create_dir_all(dir)?;
        write_atomic(dir, CURVE_FILE, &self.encode())
    }

    /// Reads `<dir>/kernels.tune` back. The points equal the saved
    /// curve's bit for bit.
    ///
    /// # Errors
    /// A missing, unreadable, damaged or earlier-format file is an
    /// error whose message names the path; nothing is partially decoded.
    pub fn load(dir: &Path) -> io::Result<ThroughputCurve> {
        let path = dir.join(CURVE_FILE);
        let bytes = std::fs::read(&path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        ThroughputCurve::decode(&bytes).map_err(|why| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {why}", path.display()),
            )
        })
    }

    /// `true` when no measurements back the curve.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The measured samples, flops-ascending.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The best measured rate on the curve (GFLOP/s).
    pub fn peak_gflops(&self) -> f64 {
        self.points.iter().map(|(_, g)| *g).fold(0.0, f64::max)
    }

    /// The interpolated rate (GFLOP/s) at a flop volume: clamped to the
    /// end samples outside the measured range, piecewise-linear in
    /// `ln(flops)` inside it. Zero on an empty curve.
    pub fn rate_gflops(&self, flops: f64) -> f64 {
        let pts = self.points.as_slice();
        match pts {
            [] => 0.0,
            [(_, g)] => *g,
            _ => {
                if flops <= pts[0].0 {
                    return pts[0].1;
                }
                if flops >= pts[pts.len() - 1].0 {
                    return pts[pts.len() - 1].1;
                }
                let i = pts.partition_point(|(f, _)| *f <= flops);
                let (f0, g0) = pts[i - 1];
                let (f1, g1) = pts[i];
                let t = (flops.ln() - f0.ln()) / (f1.ln() - f0.ln());
                g0 + t * (g1 - g0)
            }
        }
    }

    /// The curve's throughput at `flops` relative to its peak, in
    /// `(0, 1]`. One on an empty curve (no penalty known).
    pub fn relative(&self, flops: f64) -> f64 {
        let peak = self.peak_gflops();
        if peak <= 0.0 {
            return 1.0;
        }
        (self.rate_gflops(flops) / peak).clamp(f64::MIN_POSITIVE, 1.0)
    }
}

/// The measured-throughput cost model: the analytical model with its
/// CPU term's flop rate scaled by the curve's relative throughput at
/// the operator's flop volume.
///
/// `cpu_flops` is the per-worker critical-path flop count — the same
/// granularity the probe times — so `relative(cpu_flops)` looks up
/// where on the throughput cliff this operator's chunks actually sit.
/// Only `OpKind::MatMul` is scaled (the only operator the probe
/// measures); every other operator and all transforms fall through to
/// [`AnalyticalCostModel`] unchanged, and so does everything when the
/// curve is empty.
#[derive(Debug, Clone, Default)]
pub struct CurveCostModel {
    curve: ThroughputCurve,
    inner: AnalyticalCostModel,
}

impl CurveCostModel {
    /// Wraps an explicit curve.
    pub fn new(curve: ThroughputCurve) -> CurveCostModel {
        CurveCostModel {
            curve,
            inner: AnalyticalCostModel,
        }
    }

    /// The curve this model consults.
    pub fn curve(&self) -> &ThroughputCurve {
        &self.curve
    }
}

impl CostModel for CurveCostModel {
    fn impl_time(&self, op: OpKind, features: &CostFeatures, cluster: &Cluster) -> f64 {
        if op != OpKind::MatMul || self.curve.is_empty() || features.cpu_flops <= 0.0 {
            return self.inner.impl_time(op, features, cluster);
        }
        let rel = self.curve.relative(features.cpu_flops);
        let mut scaled = *cluster;
        scaled.flops_per_sec = cluster.flops_per_sec * rel;
        self.inner.impl_time(op, features, &scaled)
    }

    fn transform_time(
        &self,
        kind: TransformKind,
        features: &CostFeatures,
        cluster: &Cluster,
    ) -> f64 {
        self.inner.transform_time(kind, features, cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(flops: f64) -> CostFeatures {
        CostFeatures {
            cpu_flops: flops,
            local_flops: 0.0,
            net_bytes: 0.0,
            inter_bytes: 0.0,
            tuples: 0.0,
            ops: 0.0,
        }
    }

    #[test]
    fn curve_interpolates_and_clamps() {
        let c = ThroughputCurve::from_samples(&[(1e6, 4.0), (1e9, 8.0)]);
        assert_eq!(c.rate_gflops(1e3), 4.0); // below range: clamp
        assert_eq!(c.rate_gflops(1e12), 8.0); // above range: clamp
        let mid = c.rate_gflops(10f64.powf(7.5)); // log-midpoint
        assert!((mid - 6.0).abs() < 1e-9, "log-linear midpoint, got {mid}");
        assert_eq!(c.peak_gflops(), 8.0);
        assert!((c.relative(1e3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_flop_volumes_average() {
        let c = ThroughputCurve::from_samples(&[(1e6, 2.0), (1e6, 4.0)]);
        assert_eq!(c.points(), &[(1e6, 3.0)]);
    }

    #[test]
    fn garbage_samples_are_dropped() {
        let c = ThroughputCurve::from_samples(&[
            (0.0, 5.0),
            (-1.0, 5.0),
            (f64::NAN, 5.0),
            (1e6, f64::INFINITY),
            (1e6, 0.0),
        ]);
        assert!(c.is_empty());
        assert_eq!(c.relative(1e6), 1.0);
    }

    #[test]
    fn empty_curve_model_matches_analytical() {
        let curved = CurveCostModel::default();
        let plain = AnalyticalCostModel;
        let cl = Cluster::unit_test(4);
        let f = feat(1e9);
        for op in matopt_core::ALL_OP_KINDS {
            assert_eq!(
                curved.impl_time(op, &f, &cl).to_bits(),
                plain.impl_time(op, &f, &cl).to_bits(),
                "{op:?}"
            );
        }
    }

    #[test]
    fn low_throughput_region_costs_more() {
        // Small products run at half the peak rate → twice the time.
        let curved = CurveCostModel::new(ThroughputCurve::from_samples(&[(1e6, 5.0), (1e9, 10.0)]));
        let cl = Cluster::unit_test(1);
        let small = curved.impl_time(OpKind::MatMul, &feat(1e5), &cl);
        let plain = AnalyticalCostModel.impl_time(OpKind::MatMul, &feat(1e5), &cl);
        assert!((small / plain - 2.0).abs() < 1e-9, "{small} vs {plain}");
        // At the peak there is no penalty.
        let big = curved.impl_time(OpKind::MatMul, &feat(1e12), &cl);
        let plain_big = AnalyticalCostModel.impl_time(OpKind::MatMul, &feat(1e12), &cl);
        assert_eq!(big, plain_big);
    }

    #[test]
    fn non_matmul_ops_and_transforms_are_untouched() {
        let curved = CurveCostModel::new(ThroughputCurve::from_samples(&[(1e6, 1.0), (1e9, 9.0)]));
        let cl = Cluster::unit_test(2);
        let f = feat(1e5);
        assert_eq!(
            curved.impl_time(OpKind::Add, &f, &cl),
            AnalyticalCostModel.impl_time(OpKind::Add, &f, &cl)
        );
        assert_eq!(
            curved.transform_time(TransformKind::Identity, &f, &cl),
            AnalyticalCostModel.transform_time(TransformKind::Identity, &f, &cl)
        );
    }

    fn sample_curve() -> ThroughputCurve {
        ThroughputCurve::from_samples(&[(1.5e6, 3.25), (2.7e8, 19.0), (9.1e8, 22.5)])
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("matopt-curve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A well-formed file (valid count, valid checksum) over raw words.
    fn file_of(points: &[(f64, f64)]) -> Vec<u8> {
        ThroughputCurve {
            points: points.to_vec(),
        }
        .encode()
    }

    #[test]
    fn probe_measures_one_positive_rate_per_shape() {
        let c = ThroughputCurve::probe(&[(8, 8, 8), (24, 16, 32)]);
        assert_eq!(c.points().len(), 2);
        assert_eq!(c.points()[0].0, 2.0 * 512.0);
        assert!(c.points().iter().all(|(_, g)| g.is_finite() && *g > 0.0));
        // The shipped table fits the file's point bound.
        assert!(PROBE_SHAPES.len() <= MAX_POINTS);
        assert!(PROBE_SHAPES.iter().all(|&(m, k, n)| m.max(k).max(n) <= 768));
    }

    #[test]
    fn curve_file_round_trips_bit_for_bit() {
        let dir = temp_dir("roundtrip");
        let curve = sample_curve();
        curve.save(&dir).expect("save");
        let loaded = ThroughputCurve::load(&dir).expect("load");
        let bits = |c: &ThroughputCurve| -> Vec<(u64, u64)> {
            c.points()
                .iter()
                .map(|(f, g)| (f.to_bits(), g.to_bits()))
                .collect()
        };
        assert_eq!(bits(&loaded), bits(&curve));
        // Overwriting is atomic-by-rename and leaves no temp file.
        ThroughputCurve::empty().save(&dir).expect("save empty");
        assert!(ThroughputCurve::load(&dir).expect("load").is_empty());
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert_eq!(names, [std::ffi::OsString::from(CURVE_FILE)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let clean = sample_curve().encode();
        assert!(ThroughputCurve::decode(&clean).is_ok());
        for i in 0..clean.len() {
            for mask in [0x01u8, 0x40, 0xff] {
                let mut dirty = clean.clone();
                dirty[i] ^= mask;
                assert!(
                    ThroughputCurve::decode(&dirty).is_err(),
                    "flip {mask:#04x} at byte {i} decoded"
                );
            }
        }
    }

    #[test]
    fn every_prefix_truncation_is_rejected() {
        let clean = sample_curve().encode();
        for end in 0..clean.len() {
            assert!(
                ThroughputCurve::decode(&clean[..end]).is_err(),
                "prefix of {end} bytes decoded"
            );
        }
        // Trailing bytes are corruption too, not padding.
        let mut padded = clean.clone();
        padded.extend_from_slice(&[0; 8]);
        assert!(ThroughputCurve::decode(&padded).is_err());
    }

    #[test]
    fn oversized_and_insane_curves_are_rejected() {
        // Correctly checksummed files whose *content* is out of bounds.
        let many: Vec<(f64, f64)> = (1..=MAX_POINTS + 1).map(|i| (i as f64, 1.0)).collect();
        assert!(ThroughputCurve::decode(&file_of(&many[..MAX_POINTS])).is_ok());
        assert!(ThroughputCurve::decode(&file_of(&many)).is_err());
        for bad in [
            [(1e6, f64::NAN), (2e6, 1.0)],
            [(1e6, 1.0), (f64::INFINITY, 1.0)],
            [(1e6, 0.0), (2e6, 1.0)],
            [(-1e6, 1.0), (2e6, 1.0)],
            [(2e6, 1.0), (1e6, 1.0)],
            [(1e6, 1.0), (1e6, 2.0)],
        ] {
            assert!(
                ThroughputCurve::decode(&file_of(&bad)).is_err(),
                "{bad:?} decoded"
            );
        }
        // `save` refuses what `load` would reject.
        let dir = temp_dir("oversized");
        let big = ThroughputCurve::from_samples(&many);
        assert_eq!(
            big.save(&dir).expect_err("65 points").kind(),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn missing_and_legacy_files_are_errors_naming_the_path() {
        let dir = temp_dir("legacy");
        let missing = ThroughputCurve::load(&dir).expect_err("no file");
        assert_eq!(missing.kind(), io::ErrorKind::NotFound);
        assert!(missing.to_string().contains(CURVE_FILE), "{missing}");

        // Every earlier MTUN file: the autotuner catalog, and the
        // parent build's unframed curve record — magic, then anything.
        std::fs::create_dir_all(&dir).expect("mkdir");
        for magic in [b"MTUN0001", b"MTUN0002"] {
            let mut legacy = magic.to_vec();
            legacy.extend_from_slice(&[0u8; 64]);
            std::fs::write(dir.join(CURVE_FILE), legacy).expect("write");
            let err = ThroughputCurve::load(&dir).expect_err("legacy file");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains("matopt tune") && msg.contains(std::str::from_utf8(magic).unwrap()),
                "{msg}"
            );
            assert!(msg.contains(&dir.display().to_string()), "{msg}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
