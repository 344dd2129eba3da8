//! Workload generators. Every input is a pure function of the workload
//! seed given on the command line; the program under test only ever sees
//! the generated request bodies and CLI arguments.
//!
//! Bodies are written in the request schema's canonical single-line form
//! (`EstimateRequest::to_json` order), so they are valid wire documents
//! without linking the API crate.

use std::collections::HashMap;
use std::sync::OnceLock;

/// Closed-loop connections (and worker threads): the host's `nproc`.
pub const CONNECTIONS: usize = 2;
/// Request seeds that span the `serve-grid` population.
pub const GRID_SEEDS: u64 = 3;
/// Sends in one `serve-grid` round: about five per distinct body.
pub const GRID_SENDS: usize = 6300;
/// The server's `--cache`. It must exceed the distinct bodies of a
/// `serve-grid` round even if every one hashed to the same one of the
/// cache's 8 shards, so no repeat is ever evicted before it is sent.
pub const SERVER_CACHE: usize = 16384;
/// Requests in one `serve-novel` round (one server lifetime).
pub const NOVEL_ROUND: usize = 500;
/// Seeds `sweep-paper` cycles through, one `hpcarbon sweep` call each.
pub const SWEEP_SEEDS: u64 = 4;
/// Rows of one `paper_default` sweep (one seed).
pub const SWEEP_ROWS: usize = 504;
/// Request seeds are a base below 2^SEED_BITS plus a small offset, so
/// they stay below 2^53. The API reads JSON numbers as f64, and above
/// 2^53 distinct seeds would parse to the same request and hit the cache.
const SEED_BITS: u32 = 52;

const SYSTEMS: [&str; 3] = ["frontier", "lumi", "perlmutter"];
const STORAGE: [&str; 2] = ["baseline", "all-flash"];
const REGIONS: [&str; 7] = ["kn", "tk", "eso", "ciso", "pjm", "miso", "ercot"];
const PUES: [&str; 2] = ["1.2", r#"{"mean": 1.2, "amplitude": 0.1}"#];
const POLICIES: [&str; 3] = [
    r#""fifo""#,
    r#"{"name": "greenest-window", "horizon_hours": 24}"#,
    r#"{"name": "threshold-defer", "threshold_g_per_kwh": 150}"#,
];
const UPGRADES: [&str; 2] = [
    r#"{"from": "p100", "to": "a100", "suite": "nlp"}"#,
    r#"{"from": "v100", "to": "a100", "suite": "vision"}"#,
];

/// SplitMix64: small, well mixed, and needs no crate.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (the modulo bias is below 2^-50 here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A base for a workload's request seeds, drawn from the workload seed
/// and below 2^SEED_BITS.
fn seed_base(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt).next_u64() >> (64 - SEED_BITS)
}

/// One `paper_default` grid point without its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Point {
    system: usize,
    storage: usize,
    region: usize,
    pue: usize,
    policy: usize,
    upgrade: usize,
}

impl Point {
    #[cfg(test)]
    pub fn region(&self) -> &'static str {
        REGIONS[self.region]
    }

    /// The request body for this point under `seed`, paper-default
    /// workload knobs (2021 grid year, 120 jobs on 96 GPUs, medium usage).
    pub fn body(&self, seed: u64) -> String {
        format!(
            r#"{{"schema_version": 1, "system": "{}", "storage": "{}", "region": "{}", "trace": "paper", "pue": {}, "policy": {}, "upgrade": {}, "usage": 0.4, "seed": {seed}, "year": 2021, "jobs": 120, "cluster_gpus": 96}}"#,
            SYSTEMS[self.system],
            STORAGE[self.storage],
            REGIONS[self.region],
            PUES[self.pue],
            POLICIES[self.policy],
            UPGRADES[self.upgrade],
        )
    }
}

/// The 420 feasible points of `paper_default`: every combination except
/// the 84 all-flash Perlmutter ones, which have no HDD tier to swap and
/// answer with error rows.
pub fn feasible_points() -> &'static [Point] {
    static POINTS: OnceLock<Vec<Point>> = OnceLock::new();
    POINTS.get_or_init(enumerate_feasible)
}

fn enumerate_feasible() -> Vec<Point> {
    let mut out = Vec::new();
    for (system, name) in SYSTEMS.iter().enumerate() {
        for (storage, variant) in STORAGE.iter().enumerate() {
            if (*name, *variant) == ("perlmutter", "all-flash") {
                continue;
            }
            for region in 0..REGIONS.len() {
                for pue in 0..PUES.len() {
                    for policy in 0..POLICIES.len() {
                        for upgrade in 0..UPGRADES.len() {
                            out.push(Point {
                                system,
                                storage,
                                region,
                                pue,
                                policy,
                                upgrade,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// One send of a serving plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Send {
    /// Index into [`ServePlan::bodies`].
    pub body: usize,
    /// The connection that sends it; every send of a body uses the same one.
    pub conn: usize,
    /// The body's first send (a cache miss); later sends are repeats.
    pub first: bool,
}

/// A finite request sequence: distinct bodies in first-send order, and
/// the sends in global order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServePlan {
    pub bodies: Vec<String>,
    pub sends: Vec<Send>,
}

impl ServePlan {
    /// One connection's sends, in order.
    pub fn conn_sends(&self, conn: usize) -> Vec<usize> {
        (0..self.sends.len())
            .filter(|&i| self.sends[i].conn == conn)
            .collect()
    }

    /// Share of sends that repeat an earlier body.
    #[cfg(test)]
    pub fn repeat_share(&self) -> f64 {
        let repeats = self.sends.iter().filter(|s| !s.first).count();
        repeats as f64 / self.sends.len() as f64
    }
}

/// `serve-grid`: [`GRID_SENDS`] draws, uniform with replacement, from the
/// 420 feasible points under [`GRID_SEEDS`] request seeds (1260 bodies,
/// 21 region-year trace keys). Each distinct body is pinned to one
/// connection, so in a closed loop its repeats always follow its first
/// answer and hit the cache.
pub fn serve_grid(seed: u64) -> ServePlan {
    let points = feasible_points();
    let base = seed_base(seed, 0x6717_5eed);
    let mut rng = Rng::new(seed ^ 0x5e7e_6717);
    let mut ids: HashMap<usize, usize> = HashMap::new();
    let mut bodies = Vec::new();
    let mut sends = Vec::with_capacity(GRID_SENDS);
    let population = points.len() * GRID_SEEDS as usize;
    for _ in 0..GRID_SENDS {
        let k = rng.below(population);
        let next = bodies.len();
        let id = *ids.entry(k).or_insert(next);
        let first = id == next;
        if first {
            let request_seed = base + (k / points.len()) as u64;
            bodies.push(points[k % points.len()].body(request_seed));
        }
        sends.push(Send {
            body: id,
            conn: id % CONNECTIONS,
            first,
        });
    }
    ServePlan { bodies, sends }
}

/// `serve-novel`: request `i` of an unbounded sequence. Its point is drawn
/// uniformly from the feasible points, and its seed is used by no other
/// request, so every miss needs a fresh region-year trace. Request `i`
/// goes to connection `i % CONNECTIONS`.
pub fn novel_request(seed: u64, i: u64) -> (Point, u64) {
    let points = feasible_points();
    let mut rng = Rng::new(seed.rotate_left(32) ^ i);
    let point = points[rng.below(points.len())];
    (point, seed_base(seed, 0x70e1_5eed) + i)
}

/// The body of `serve-novel` request `i`.
pub fn novel_body(seed: u64, i: u64) -> String {
    let (point, request_seed) = novel_request(seed, i);
    point.body(request_seed)
}

/// The grid seeds `sweep-paper` cycles through.
pub fn sweep_seeds(seed: u64) -> Vec<u64> {
    let base = seed.wrapping_mul(SWEEP_SEEDS);
    (0..SWEEP_SEEDS).map(|j| base.wrapping_add(j)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generators_are_pure_in_the_workload_seed() {
        assert_eq!(serve_grid(7), serve_grid(7));
        assert_ne!(serve_grid(7).bodies, serve_grid(8).bodies);
        for i in [0, 1, 999] {
            assert_eq!(novel_body(7, i), novel_body(7, i));
            assert_ne!(novel_body(7, i), novel_body(8, i));
        }
        assert_eq!(sweep_seeds(7), sweep_seeds(7));
        assert!(sweep_seeds(7).iter().all(|s| !sweep_seeds(8).contains(s)));
    }

    #[test]
    fn the_population_is_the_feasible_paper_grid() {
        let points = feasible_points();
        assert_eq!(points.len(), 420);
        assert_eq!(points.iter().collect::<HashSet<_>>().len(), 420);
        let body = points[0].body(2021);
        assert!(body.starts_with(r#"{"schema_version": 1, "system": "frontier""#));
        assert!(!body.contains('\n'));
    }

    #[test]
    fn serve_grid_distinct_count_fits_between_1000_and_the_cache() {
        for seed in [0, 1, 2, 42, u64::MAX] {
            let plan = serve_grid(seed);
            let distinct = plan.bodies.len();
            assert!(distinct > 1000, "seed {seed}: {distinct} distinct");
            // Below the per-shard capacity, so no shard can evict.
            assert!(distinct < SERVER_CACHE / 8, "seed {seed}: {distinct}");
            assert_eq!(plan.sends.len(), GRID_SENDS);
            assert_eq!(
                plan.bodies.iter().collect::<HashSet<_>>().len(),
                distinct,
                "bodies are distinct"
            );
            let share = plan.repeat_share();
            assert!((0.75..0.85).contains(&share), "{share}");
        }
    }

    #[test]
    fn serve_grid_pins_each_body_to_one_connection_after_its_first_send() {
        let plan = serve_grid(3);
        let mut conn_of: HashMap<usize, usize> = HashMap::new();
        let mut seen = HashSet::new();
        for s in &plan.sends {
            assert_eq!(*conn_of.entry(s.body).or_insert(s.conn), s.conn);
            assert_eq!(s.first, seen.insert(s.body), "first send comes first");
        }
        // Both connections carry load.
        for c in 0..CONNECTIONS {
            assert!(plan.conn_sends(c).len() > GRID_SENDS / 3);
        }
    }

    /// A request seed as the API reads it: JSON numbers are f64 there.
    fn as_parsed(seed: u64) -> u64 {
        seed as f64 as u64
    }

    #[test]
    fn serve_grid_draws_from_21_trace_keys() {
        for seed in [5, 987_654_321, u64::MAX] {
            let keys: HashSet<(String, u64)> = serve_grid(seed)
                .bodies
                .iter()
                .map(|b| {
                    let request_seed = field(b, "seed").parse().expect("an integer seed");
                    (field(b, "region"), as_parsed(request_seed))
                })
                .collect();
            assert_eq!(keys.len(), 21, "seed {seed}");
        }
    }

    #[test]
    fn serve_novel_never_repeats_a_trace_key() {
        for seed in [11, 987_654_321, u64::MAX] {
            let mut keys = HashSet::new();
            for i in 0..20_000 {
                let (point, request_seed) = novel_request(seed, i);
                let key = (point.region(), as_parsed(request_seed));
                assert!(keys.insert(key), "seed {seed}, request {i}");
            }
        }
        // Seeds of different workload seeds never meet either.
        assert_ne!(novel_request(11, 0).1, novel_request(12, 0).1);
    }

    /// The raw text of a top-level scalar field of a generated body.
    fn field(body: &str, name: &str) -> String {
        let key = format!("\"{name}\": ");
        let rest = &body[body.find(&key).expect("field present") + key.len()..];
        rest[..rest.find([',', '}']).expect("field ends")].to_string()
    }
}
