//! `nasaic profile` attribution: the controller leaf is split into sample
//! and feedback child rows that sum to it exactly and never enter the
//! coverage sum, and the NASAIC glue and engine-lookup leaves are
//! reported.
//!
//! One test, because the telemetry switch and registry are process-wide.

use nasaic::cli::run_command;
use nasaic::core::scenario::value::{self, ConfigValue};

fn component<'a>(components: &'a [ConfigValue], name: &str) -> &'a ConfigValue {
    components
        .iter()
        .find(|c| c.get("name").and_then(ConfigValue::as_str) == Some(name))
        .unwrap_or_else(|| panic!("profile has no `{name}` row"))
}

fn wall(c: &ConfigValue) -> f64 {
    c.get("wall_ms").and_then(ConfigValue::as_float).unwrap()
}

fn spans(c: &ConfigValue) -> i64 {
    c.get("spans").and_then(ConfigValue::as_integer).unwrap()
}

#[test]
fn controller_rows_split_the_leaf_and_glue_rows_are_attributed() {
    let args = [
        "profile",
        "--scenario",
        "w1",
        "--budget-episodes",
        "4",
        "--format",
        "json",
    ];
    let json = run_command(&args.map(String::from)).expect("profile runs");
    let profile = value::parse_json(&json).expect("profile JSON parses");
    let components = profile.get("components").unwrap().as_array().unwrap();

    let controller = component(components, "controller");
    let sample = component(components, "controller/sample");
    let feedback = component(components, "controller/feedback");
    for child in [sample, feedback] {
        assert_eq!(
            child.get("parent").and_then(ConfigValue::as_str),
            Some("controller")
        );
    }
    assert!(controller.get("parent").is_none());
    // W1 runs 1 + 10 controller samples and feedbacks per episode.
    assert_eq!(spans(sample), 44);
    assert_eq!(spans(feedback), 44);
    assert_eq!(spans(controller), spans(sample) + spans(feedback));
    let split = wall(sample) + wall(feedback);
    assert!(
        (split - wall(controller)).abs() <= 1e-9 * wall(controller).max(1.0),
        "children {split} ms do not sum to the controller's {} ms",
        wall(controller)
    );

    for name in ["glue/decode", "glue/reward", "glue/record", "engine/lookup"] {
        assert!(spans(component(components, name)) > 0, "no `{name}` spans");
    }

    // Coverage counts the leaves once: child rows and `other` stay out.
    let wall_ms = profile
        .get("wall_ms")
        .and_then(ConfigValue::as_float)
        .unwrap();
    let leaves: f64 = components
        .iter()
        .filter(|c| c.get("parent").is_none())
        .filter(|c| c.get("name").and_then(ConfigValue::as_str) != Some("other"))
        .map(wall)
        .sum();
    let coverage = profile
        .get("coverage")
        .and_then(ConfigValue::as_float)
        .unwrap();
    assert!((leaves / wall_ms - coverage).abs() < 1e-9, "{json}");
    assert!(coverage <= 1.0, "{json}");
}
