//! The standard model zoo: the five families of Tables I and IV.
//!
//! Where the paper publishes numbers (Table I: GPT, BERT, DenseNet service
//! times, keep-alive costs and accuracies; Section III-B: YOLO-s accuracy of
//! 56.8 %), we use them verbatim. Memory footprints are calibrated so that the
//! AWS GB-second rate reproduces Table I's cents/hour column exactly (see
//! [`CostModel::memory_mb_for_cents_per_hour`]). Quantities the paper omits
//! (YOLO and ResNet service times/costs, all cold-start times) are filled with
//! profiled-plausible values: cold start = 2.5 s container overhead + 3 s per
//! GB of model image to load, which lands GPT-Large at ≈23 s — matching the
//! magnitude implied by the paper's Peak-evaluation service times (Table II).

use crate::cost::CostModel;
use crate::family::ModelFamily;
use crate::variant::VariantSpec;

/// Container-creation overhead common to every cold start, seconds.
pub const COLD_BASE_S: f64 = 2.5;
/// Model-load rate on cold start, seconds per GB of container memory.
pub const COLD_PER_GB_S: f64 = 3.0;

/// Cold-start time for a container of `memory_mb` MB under the calibration
/// model documented on this module.
pub fn cold_start_for_memory(memory_mb: f64) -> f64 {
    COLD_BASE_S + COLD_PER_GB_S * memory_mb / 1024.0
}

fn variant(name: &str, warm_s: f64, cents_per_hour: f64, accuracy_pct: f64) -> VariantSpec {
    let mem = CostModel::aws_lambda().memory_mb_for_cents_per_hour(cents_per_hour);
    VariantSpec::new(name, warm_s, cold_start_for_memory(mem), mem, accuracy_pct)
}

/// GPT (text generation, wikitext): base / medium / large. All values from
/// Table I.
pub fn gpt() -> ModelFamily {
    ModelFamily::new(
        "GPT",
        "text generation",
        "wikitext",
        vec![
            variant("GPT-Small", 12.90, 11.7, 87.65),
            variant("GPT-Medium", 22.50, 22.57, 92.35),
            variant("GPT-Large", 23.66, 41.71, 93.45),
        ],
    )
}

/// BERT (sentiment analysis, sst2): base / large. All values from Table I.
pub fn bert() -> ModelFamily {
    ModelFamily::new(
        "BERT",
        "sentiment analysis",
        "sst2",
        vec![
            variant("BERT-Small", 1.09, 4.392, 79.6),
            variant("BERT-Large", 2.21, 6.12, 82.1),
        ],
    )
}

/// DenseNet (image classification, CIFAR-10): 121 / 169 / 201. All values
/// from Table I.
pub fn densenet() -> ModelFamily {
    ModelFamily::new(
        "DenseNet",
        "image classification",
        "CIFAR-10",
        vec![
            variant("DenseNet-121", 1.09, 3.46, 74.98),
            variant("DenseNet-169", 1.38, 3.53, 76.2),
            variant("DenseNet-201", 1.65, 4.07, 77.42),
        ],
    )
}

/// YOLO (object detection, COCO): s / l / x. The paper publishes only the
/// lowest variant's accuracy (56.8 %, Section III-B); service times, costs
/// and the remaining accuracies are profiled-plausible values in line with
/// YOLOv5 s/l/x COCO mAP ladders and ONNX-on-Lambda latencies.
pub fn yolo() -> ModelFamily {
    ModelFamily::new(
        "YOLO",
        "object detection",
        "COCO",
        vec![
            variant("YOLO-s", 0.45, 4.8, 56.8),
            variant("YOLO-l", 1.05, 8.9, 63.5),
            variant("YOLO-x", 1.82, 12.4, 65.7),
        ],
    )
}

/// ResNet (image classification, CIFAR-10): 50 / 101 / 152. Table IV lists the
/// family; per-variant numbers are profiled-plausible, placed between the
/// DenseNet and BERT ladders.
pub fn resnet() -> ModelFamily {
    ModelFamily::new(
        "ResNet",
        "image classification",
        "CIFAR-10",
        vec![
            variant("ResNet-50", 0.95, 3.9, 76.13),
            variant("ResNet-101", 1.32, 5.6, 77.35),
            variant("ResNet-152", 1.73, 7.1, 78.31),
        ],
    )
}

/// The standard five-family zoo of Table IV, in the paper's order.
pub fn standard() -> Vec<ModelFamily> {
    vec![bert(), yolo(), gpt(), resnet(), densenet()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_zoo_has_five_valid_families() {
        let z = standard();
        assert_eq!(z.len(), 5);
        for f in &z {
            f.validate().unwrap();
        }
        let names: Vec<_> = z.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["BERT", "YOLO", "GPT", "ResNet", "DenseNet"]);
    }

    #[test]
    fn variant_counts_match_table_iv() {
        let z = standard();
        let counts: Vec<_> = z.iter().map(|f| f.n_variants()).collect();
        // BERT 2, YOLO 3, GPT 3, ResNet 3, DenseNet 3.
        assert_eq!(counts, [2, 3, 3, 3, 3]);
    }

    #[test]
    fn memory_footprints_are_in_papers_band() {
        // The paper: ML containers consume roughly 300–3500 MB, and Lambda
        // memory is 2× the image, so footprints land in ~0.5–7 GB.
        for f in standard() {
            for v in &f.variants {
                assert!(
                    v.memory_mb > 300.0 && v.memory_mb < 7200.0,
                    "{}: {} MB",
                    v.name,
                    v.memory_mb
                );
            }
        }
    }

    #[test]
    fn cold_start_grows_with_memory() {
        for f in standard() {
            for pair in f.variants.windows(2) {
                if pair[1].memory_mb > pair[0].memory_mb {
                    assert!(pair[1].cold_start_s > pair[0].cold_start_s);
                }
            }
        }
    }

    #[test]
    fn yolo_lowest_accuracy_matches_paper_text() {
        assert!((yolo().lowest().accuracy_pct - 56.8).abs() < 1e-12);
    }

    #[test]
    fn gpt_large_cold_start_magnitude() {
        // ≈ 2.5 + 3 × 6.95 ≈ 23.4 s — the magnitude the Peak tables imply.
        let cs = gpt().highest().cold_start_s;
        assert!(cs > 20.0 && cs < 26.0, "got {cs}");
    }

    #[test]
    fn higher_variants_cost_more_to_keep_alive() {
        for f in standard() {
            for pair in f.variants.windows(2) {
                assert!(
                    pair[1].memory_mb > pair[0].memory_mb,
                    "{}: memory must rise with quality",
                    f.name
                );
            }
        }
    }
}
