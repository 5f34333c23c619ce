//! Outcome pins: the expected digest of every operation a workload runs,
//! per input seed, generated by direct in-process runs.
//!
//! A digest is `explored/spec_compliant/<best weighted accuracy bits>/<hash>`
//! where the hash covers every deterministic field of the run report
//! (wall time and cache statistics excluded: they depend on timing and on
//! how warm a shared engine is, never on the outcome).

use crate::workloads::operations;
use crate::{PINNED_SEEDS, WORKLOADS};
use nasaic_core::scenario::value::{parse_json, to_json, to_json_compact, ConfigValue};

const PINS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/pins.json");

/// Report fields that vary with timing or cache warmth, not with the outcome.
const NONDETERMINISTIC_FIELDS: &[&str] = &[
    "wall_ms",
    "cache_hit_rate",
    "accuracy_hit_rate",
    "hardware_hit_rate",
    "accuracy_entries",
    "hardware_entries",
    "accuracy_evictions",
    "hardware_evictions",
    "accuracy_capacity",
    "hardware_capacity",
];

/// The digest of one run report (the `RunReport::to_value` form).
pub fn digest(report: &ConfigValue) -> String {
    let count = |key: &str| {
        report
            .get(key)
            .and_then(ConfigValue::as_integer)
            .unwrap_or(-1)
    };
    let best = report
        .get("best")
        .and_then(|best| best.get("weighted_accuracy"))
        .and_then(ConfigValue::as_float)
        .map_or_else(|| "none".to_string(), |w| format!("{:016x}", w.to_bits()));
    let mut outcome = report.clone();
    for field in NONDETERMINISTIC_FIELDS {
        outcome.remove(field);
    }
    // FNV-1a: stable across builds and platforms, unlike `DefaultHasher`.
    let hash = to_json_compact(&outcome)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    format!(
        "{}/{}/{best}/{hash:016x}",
        count("explored"),
        count("spec_compliant")
    )
}

/// The pinned digests, keyed `<workload>/s<input seed>/<operation>`.
pub struct Pins {
    table: ConfigValue,
}

impl Pins {
    pub fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string(PINS_PATH)
            .map_err(|e| format!("cannot read {PINS_PATH}: {e} (run with --regen-pins)"))?;
        let table = parse_json(&text).map_err(|e| format!("{PINS_PATH}: {e}"))?;
        Ok(Self { table })
    }

    /// `true` when `report` matches the pin for `key`; a missing pin is a
    /// mismatch.
    pub fn matches(&self, key: &str, report: &ConfigValue) -> bool {
        let expected = self.table.get(key).and_then(ConfigValue::as_str);
        let actual = digest(report);
        if expected != Some(actual.as_str()) {
            eprintln!("perfbench: outcome mismatch for {key}: pinned {expected:?}, got {actual}");
            return false;
        }
        true
    }
}

/// Recompute every pin by running each operation directly (no daemon, a
/// fresh default engine per operation) and write `pins.json`.
pub fn regenerate() -> Result<String, String> {
    let mut table = ConfigValue::table();
    for workload in WORKLOADS {
        for seed in 0..PINNED_SEEDS {
            for (key, scenario) in operations(workload, seed)? {
                eprintln!("pinning {key}");
                table.insert(
                    &key,
                    ConfigValue::Str(digest(&scenario.run_report().to_value())),
                );
            }
        }
    }
    std::fs::write(PINS_PATH, to_json(&table) + "\n")
        .map_err(|e| format!("cannot write {PINS_PATH}: {e}"))?;
    Ok(PINS_PATH.to_string())
}
