//! Golden pin of the RL controller's seeded behaviour.
//!
//! The controller's forward pass, backward pass and RMSProp step are
//! performance-critical and are rewritten from time to time; every
//! rewrite must keep seeded searches bit-identical.  This test drives the
//! 19-decision W1 policy (hidden size 32) through 200 sample + feedback
//! rounds under a seeded reward stream, for both trainer configurations
//! (`stable`, whose entropy floor engages, and `paper`) at temperatures
//! 1.0 and 0.7, and pins FNV-1a digests of:
//!
//! * the stream of actions, `log_prob` and `mean_entropy` bits and
//!   returned advantages, up to rounds 1, 10 and 200;
//! * every weight and RMSProp accumulator bit of `export_state()` at those
//!   rounds.
//!
//! The digests were recorded on the per-step `Matrix` implementation that
//! preceded the allocation-free tape.  A mismatch prints the new table; a
//! deliberate numerical change has to replace it and say why.

use nasaic::core::prelude::*;
use nasaic::rl::reinforce::ReinforceConfig;
use nasaic::rl::{Controller, ControllerConfig, PolicyNetwork, PolicyState, ReinforceTrainer};
use nasaic::tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROUNDS: usize = 200;
const PINNED_ROUNDS: [usize; 3] = [1, 10, 200];
const HIDDEN: usize = 32;

/// `(config, temperature, [(stream digest, state digest); 3])`.
type Pin = (&'static str, f64, [(u64, u64); 3]);

const GOLDEN: [Pin; 4] = [
    (
        "stable",
        1.0,
        [
            (0xed364b13978c5e71, 0xde2253759a619223),
            (0x2c79c97beee2b7e5, 0xe820b214219437e2),
            (0x8f3e08492c4831a4, 0x5435518326290104),
        ],
    ),
    (
        "stable",
        0.7,
        [
            (0x889ddfa7fa8a3cc8, 0x49ebe9f909b445e8),
            (0xfc15c1b1b666d63c, 0x5e02cb61d3de08f9),
            (0xd70c2be5005c5b20, 0xc224a2654b588020),
        ],
    ),
    (
        "paper",
        1.0,
        [
            (0xed364b13978c5e71, 0x32767f97b45bd2e7),
            (0x7b9c45c0c5a1ec5c, 0xcfa0bdbaaefb1254),
            (0xc15bf10bd8b462a8, 0x1b3bd1a157e18b85),
        ],
    ),
    (
        "paper",
        0.7,
        [
            (0x889ddfa7fa8a3cc8, 0x21c94fcb7ff711f3),
            (0x4a0f7417bf51706b, 0x4c2d420a6293d460),
            (0x6c7c620177c17482, 0xfb5ad736dcc3d472),
        ],
    ),
];

/// FNV-1a over 64-bit words: stable across builds and platforms.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for v in m.as_slice() {
            self.word(v.to_bits());
        }
    }

    fn accumulator(&mut self, m: &Option<Matrix>) {
        match m {
            None => self.word(0),
            Some(m) => {
                self.word(1);
                self.matrix(m);
            }
        }
    }
}

fn state_digest(state: &PolicyState) -> u64 {
    let mut h = Fnv::new();
    for m in [&state.w_x, &state.w_h, &state.b] {
        h.matrix(m);
    }
    for (u, c) in &state.heads {
        h.matrix(u);
        h.matrix(c);
    }
    for m in &state.opt_cell {
        h.accumulator(m);
    }
    for (u, c) in &state.opt_heads {
        h.accumulator(u);
        h.accumulator(c);
    }
    h.0
}

fn reinforce(name: &str) -> ReinforceConfig {
    match name {
        "stable" => ReinforceConfig::stable(),
        "paper" => ReinforceConfig::paper(),
        other => panic!("unknown config {other}"),
    }
}

/// The reward of one round: mostly how many decisions chose option 0,
/// with seeded noise and an occasional large penalty (which the trainer's
/// advantage clip has to absorb).
fn reward(rng: &mut StdRng, actions: &[usize]) -> f64 {
    let zeros = actions.iter().filter(|&&a| a == 0).count() as f64;
    let noise = rng.gen_range(-0.05..0.05);
    if rng.gen_bool(0.1) {
        -5.0 + noise
    } else {
        zeros / actions.len() as f64 + noise
    }
}

/// One pinned run, driven through the controller's building blocks
/// (which expose `log_prob`) and mirrored through [`Controller`] itself.
/// Returns the digests at [`PINNED_ROUNDS`] and the lowest sampled mean
/// entropy.
fn run(config_name: &str, temperature: f64) -> ([(u64, u64); 3], f64) {
    let segments = Workload::w1().controller_segments(&HardwareSpace::paper_default(2));
    let config = ControllerConfig {
        hidden_size: HIDDEN,
        temperature,
        reinforce: reinforce(config_name),
    };
    let seed = 2020;
    let cardinalities: Vec<usize> = segments
        .iter()
        .flat_map(|s| s.cardinalities.iter().copied())
        .collect();
    assert_eq!(cardinalities.len(), 19, "the W1 policy has 19 decisions");
    let mut policy = PolicyNetwork::new(&mut StdRng::seed_from_u64(seed), cardinalities, HIDDEN);
    let mut trainer = ReinforceTrainer::new(config.reinforce);
    let mut controller = Controller::new(segments, config, seed);

    let mut sample_rng = StdRng::seed_from_u64(7);
    let mut mirror_rng = StdRng::seed_from_u64(7);
    let mut reward_rng = StdRng::seed_from_u64(11);
    let mut stream = Fnv::new();
    let mut pins = Vec::new();
    let mut min_entropy = f64::INFINITY;
    for round in 1..=ROUNDS {
        let episode = policy.sample_episode(&mut sample_rng, temperature);
        let reward = reward(&mut reward_rng, &episode.actions);
        let advantage = trainer.update(&mut policy, &episode.actions, reward);
        for &a in &episode.actions {
            stream.word(a as u64);
        }
        stream.word(episode.log_prob.to_bits());
        stream.word(episode.mean_entropy.to_bits());
        stream.word(advantage.to_bits());
        min_entropy = min_entropy.min(episode.mean_entropy);

        let mirrored = controller.sample(&mut mirror_rng);
        assert_eq!(mirrored.actions, episode.actions, "round {round}");
        assert_eq!(
            mirrored.mean_entropy.to_bits(),
            episode.mean_entropy.to_bits(),
            "round {round}"
        );
        let mirrored_advantage = controller.feedback(&mirrored, reward);
        assert_eq!(
            mirrored_advantage.to_bits(),
            advantage.to_bits(),
            "round {round}"
        );

        if PINNED_ROUNDS.contains(&round) {
            let state = policy.export_state();
            assert_eq!(
                controller.export_state().policy,
                state,
                "controller diverged from its policy at round {round}"
            );
            pins.push((stream.0, state_digest(&state)));
        }
    }
    (pins.try_into().expect("three pinned rounds"), min_entropy)
}

#[test]
fn seeded_controller_runs_match_the_golden_digests() {
    let mut actual = Vec::new();
    for (config_name, temperature, _) in GOLDEN {
        let (pins, min_entropy) = run(config_name, temperature);
        if config_name == "stable" && temperature == 1.0 {
            // The pin is only meaningful for the anti-collapse guard if
            // the policy actually sank below the entropy floor.
            let floor = ReinforceConfig::stable().entropy_floor;
            assert!(
                min_entropy < floor,
                "entropy floor {floor} never engaged (lowest sampled entropy {min_entropy})"
            );
        }
        actual.push((config_name, temperature, pins));
    }
    let table: String = actual
        .iter()
        .map(|(name, t, pins)| {
            let cells: Vec<String> = pins
                .iter()
                .map(|(s, w)| format!("({s:#018x}, {w:#018x})"))
                .collect();
            format!("    (\"{name}\", {t:?}, [{}]),\n", cells.join(", "))
        })
        .collect();
    for ((name, t, expected), (_, _, pins)) in GOLDEN.iter().zip(&actual) {
        for ((round, want), got) in PINNED_ROUNDS.iter().zip(expected).zip(pins) {
            assert_eq!(
                got, want,
                "{name} at temperature {t} diverged by round {round}; new table:\n{table}"
            );
        }
    }
}
