//! The four workloads and their seeded inputs.
//!
//! Every input is a stripped ELF image built by `bingen` from `--seed`; the
//! program under test only ever sees those bytes (or a file holding them).
//! The generator's ground truth stays on the benchmark's side and is used
//! only to score the output.

use metadis::gen::rng::Rng;
use metadis::gen::{GenConfig, OptProfile, Workload};

/// Workload names in run order (why each exists: `BENCHMARK.json`).
pub const WORKLOADS: [&str; 4] = ["switch-heavy", "data-heavy", "small-batch", "serve-open"];

/// One generated input: the ELF bytes the program sees and the generator's
/// record of what they contain.
pub struct Input {
    /// Serialized stripped ELF executable.
    pub elf: Vec<u8>,
    /// Generator output, ground truth included.
    pub truth: Workload,
}

impl Input {
    fn new(cfg: &GenConfig) -> Input {
        let truth = Workload::generate(cfg);
        Input {
            elf: truth.to_elf().to_bytes(),
            truth,
        }
    }
}

/// Generate the inputs of workload `name` from `seed`.
pub fn generate(name: &str, seed: u64) -> Result<Vec<Input>, String> {
    let inputs = match name {
        // The scaling corpus behind the repository's headline throughput.
        "switch-heavy" => vec![Input::new(&GenConfig::new(
            seed,
            OptProfile::O2,
            3_000,
            0.10,
        ))],
        "data-heavy" => vec![Input::new(&GenConfig {
            jump_tables: false,
            ..GenConfig::new(seed + 1_000, OptProfile::O1, 3_500, 0.30)
        })],
        "small-batch" => {
            let mut rng = Rng::seed_from_u64(seed + 2_000);
            (0..400u64)
                .map(|i| {
                    let functions: usize = rng.gen_range(8..=40);
                    let profile = OptProfile::ALL[(i % 4) as usize];
                    Input::new(&GenConfig::new(seed + 2_000 + i, profile, functions, 0.10))
                })
                .collect()
        }
        "serve-open" => (0..64u64)
            .map(|i| Input::new(&GenConfig::small(seed + 3_000 + i)))
            .collect(),
        other => return Err(format!("unknown workload '{other}'")),
    };
    Ok(inputs)
}

/// Total `.text` bytes across `inputs` (the unit of the throughput metrics).
pub fn text_bytes(inputs: &[Input]) -> u64 {
    inputs.iter().map(|i| i.truth.text.len() as u64).sum()
}
