//! Behaviour lock: a golden digest of the completed pipeline output.
//!
//! A refactor proves that it changes nothing by leaving this digest
//! unchanged, for every thread count and through both the bare and the
//! supervised runner. An intended output change regenerates the pinned
//! value and says so in CHANGES.md.

use origins_of_memes::core::pipeline::{Pipeline, PipelineConfig};
use origins_of_memes::core::runner::crc32;
use origins_of_memes::core::supervise::SupervisedRunner;
use origins_of_memes::simweb::SimConfig;

/// `crc32(PipelineOutput::to_json())` for `SimConfig::tiny(7)` under the
/// default pipeline configuration.
const TINY_SEED7_DIGEST: u32 = 0x92aa_c15a;

fn digest(json: &str) -> String {
    format!("{:#010x} over {} bytes", crc32(json.as_bytes()), json.len())
}

#[test]
fn pipeline_output_digest_is_pinned_across_threads_and_runners() {
    let dataset = SimConfig::tiny(7).generate();
    for threads in [1, 2] {
        let config = PipelineConfig {
            threads,
            ..Default::default()
        };
        let bare = Pipeline::new(config.clone())
            .run(&dataset)
            .expect("bare pipeline completes")
            .to_json();
        assert_eq!(
            crc32(bare.as_bytes()),
            TINY_SEED7_DIGEST,
            "Pipeline::run at {threads} threads: {}",
            digest(&bare)
        );
        let supervised = SupervisedRunner::new(Pipeline::new(config))
            .run(&dataset)
            .expect("supervised pipeline completes")
            .expect_complete()
            .to_json();
        assert_eq!(
            crc32(supervised.as_bytes()),
            TINY_SEED7_DIGEST,
            "SupervisedRunner::run at {threads} threads: {}",
            digest(&supervised)
        );
    }
}
