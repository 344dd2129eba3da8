//! Property tests for the workload performance/power models.

use hpcarbon_workloads::benchmarks::{Suite, ALL_BENCHMARKS};
use hpcarbon_workloads::gpus::GpuModel;
use hpcarbon_workloads::nodes::NodeGen;
use hpcarbon_workloads::perf::{
    comm_time, geomean, improvement_percent, node_throughput, sample_time, suite_scaling,
};
use proptest::prelude::*;

fn any_node() -> impl Strategy<Value = NodeGen> {
    prop_oneof![
        Just(NodeGen::P100Node),
        Just(NodeGen::V100Node),
        Just(NodeGen::A100Node),
    ]
}

fn any_suite() -> impl Strategy<Value = Suite> {
    prop_oneof![Just(Suite::Nlp), Just(Suite::Vision), Just(Suite::Candle)]
}

proptest! {
    /// Per-benchmark, adding GPUs keeps throughput within [0.5x, n x] of a
    /// single GPU. Strict monotonicity does NOT hold: tiny models (e.g.
    /// ShuffleNetV2) can lose throughput at 2 GPUs because the allreduce
    /// latency exceeds their step time — a real data-parallel pathology
    /// the model reproduces. Suite-level scaling, which Fig. 4 plots, is
    /// monotone.
    #[test]
    fn throughput_bounded_per_benchmark(node in any_node(), bi in 0usize..15) {
        let b = &ALL_BENCHMARKS[bi];
        let t1 = node_throughput(b, node, 1);
        for n in 2..=4u32 {
            let t = node_throughput(b, node, n);
            prop_assert!(t > t1 * 0.5, "{} at {n} GPUs collapsed: {t}", b.name);
            prop_assert!(t < t1 * f64::from(n) + 1e-9, "{} superlinear", b.name);
        }
    }

    /// Suite-average scaling (the Fig. 4 quantity) is monotone in GPUs.
    #[test]
    fn suite_scaling_monotone(node in any_node(), suite in any_suite()) {
        let s2 = suite_scaling(suite, node, 2);
        let s4 = suite_scaling(suite, node, 4);
        prop_assert!(s2 > 1.0, "{suite:?}@{node:?}: s2={s2}");
        prop_assert!(s4 > s2, "{suite:?}@{node:?}: s4={s4} <= s2={s2}");
    }

    /// Communication time is monotone in GPU count and zero at one GPU.
    #[test]
    fn comm_monotone(node in any_node(), bi in 0usize..15) {
        let b = &ALL_BENCHMARKS[bi];
        prop_assert_eq!(comm_time(b, node, 1), 0.0);
        let mut last = 0.0;
        for n in 2..=8u32 {
            let c = comm_time(b, node, n);
            prop_assert!(c > last);
            last = c;
        }
    }

    /// Suite scaling lies strictly between 1 and n for n > 1.
    #[test]
    fn scaling_bracket(node in any_node(), suite in any_suite(), n in 2u32..=4) {
        let s = suite_scaling(suite, node, n);
        prop_assert!(s > 1.0 && s < f64::from(n), "{suite:?}@{node:?} x{n}: {s}");
    }

    /// Sample times scale inversely with MFU: a hypothetical doubling of
    /// achievable fraction cannot be beaten by any same-precision change.
    #[test]
    fn sample_time_positive_and_finite(bi in 0usize..15) {
        let b = &ALL_BENCHMARKS[bi];
        for gpu in GpuModel::ALL {
            let t = sample_time(b, gpu);
            prop_assert!(t.is_finite() && t > 0.0);
            // Physical floor: cannot beat the pure-memory roofline term.
            let mem_floor = b.bytes_per_sample_gb / gpu.spec().mem_bw.as_gbps();
            prop_assert!(t >= mem_floor);
        }
    }

    /// Improvement percent is the exact inverse of speedup.
    #[test]
    fn improvement_speedup_roundtrip(s in 1.001..100.0f64) {
        let imp = improvement_percent(s);
        prop_assert!((1.0 / (1.0 - imp / 100.0) - s).abs() < 1e-9);
        prop_assert!(imp > 0.0 && imp < 100.0);
    }

    /// Geomean is bounded by min and max and scale-equivariant.
    #[test]
    fn geomean_properties(xs in proptest::collection::vec(0.01..100.0f64, 1..10), k in 0.1..10.0f64) {
        let g = geomean(&xs);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(0.0f64, f64::max);
        prop_assert!(g >= min - 1e-12 && g <= max + 1e-12);
        let scaled: Vec<f64> = xs.iter().map(|x| x * k).collect();
        prop_assert!((geomean(&scaled) - g * k).abs() < g * k * 1e-9);
    }

    /// Embodied with GPUs is strictly increasing and affine in count.
    #[test]
    fn embodied_affine_in_gpu_count(node in any_node(), n in 1u32..=8) {
        let e0 = node.embodied_with_gpus(0).total().as_kg();
        let e1 = node.embodied_with_gpus(1).total().as_kg();
        let en = node.embodied_with_gpus(n).total().as_kg();
        let per_gpu = e1 - e0;
        prop_assert!(per_gpu > 0.0);
        prop_assert!((en - (e0 + per_gpu * f64::from(n))).abs() < 1e-9);
    }
}
