//! In-repo fault injection ("failpoints") for chaos testing.
//!
//! Named sites in the analysis engine and the serve daemon call
//! [`hit`]; while no site is configured that call is a single relaxed
//! atomic load, so production runs pay nothing. Sites are configured
//! either from the `PROTEST_FAILPOINTS` environment variable (read
//! once, at first use) or programmatically via [`configure`] (the chaos
//! tests' path — it overrides whatever the environment said):
//!
//! ```text
//! PROTEST_FAILPOINTS=serve.worker.panic=1in20,core.propagate.delay=5ms
//! ```
//!
//! Supported actions per site:
//!
//! * `always` (alias `on`) — fire on every hit
//! * `off` — never fire
//! * `1inN` — fire deterministically on every Nth hit of the site
//! * `Nms` — sleep N milliseconds at the site, never fire
//! * `once` — fire on the first hit only
//!
//! "Firing" means [`hit`] returns `true`; the call site decides what
//! the injected fault is (a panic, an early return).
//! Delay actions sleep inside [`hit`] and return `false`, so a delay
//! can be attached to any site without the site knowing. Unparseable
//! entries are ignored.
//!
//! Known sites (grep for `failpoints::hit`):
//!
//! | site                  | effect when fired                           |
//! |-----------------------|---------------------------------------------|
//! | `core.propagate.delay`| delay per propagation wavefront and per lane batch of a partitioned run (delay-only)|
//! | `core.detect.delay`   | delay per fault-estimation block (delay-only)|
//! | `serve.worker.panic`  | worker panics mid-job (exercises `catch_unwind`) |
//! | `serve.worker.delay`  | delay per dispatched job (delay-only)       |

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

const UNINIT: u8 = 0;
const DISABLED: u8 = 1;
const ENABLED: u8 = 2;

/// Fast-path gate: `UNINIT` until the environment is consulted, then
/// `DISABLED`/`ENABLED` depending on whether any site is configured.
static STATE: AtomicU8 = AtomicU8::new(UNINIT);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Action {
    Always,
    Off,
    OneIn(u64),
    DelayMs(u64),
    Once,
}

#[derive(Debug)]
struct Site {
    action: Action,
    hits: u64,
    fired: bool,
}

fn table() -> &'static Mutex<HashMap<String, Site>> {
    static TABLE: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn parse_action(text: &str) -> Option<Action> {
    match text {
        "always" | "on" => return Some(Action::Always),
        "off" => return Some(Action::Off),
        "once" => return Some(Action::Once),
        _ => {}
    }
    if let Some(n) = text.strip_prefix("1in") {
        let n: u64 = n.parse().ok()?;
        return (n >= 1).then_some(Action::OneIn(n));
    }
    if let Some(ms) = text.strip_suffix("ms") {
        return ms.parse().ok().map(Action::DelayMs);
    }
    None
}

/// Parses `site=action,site=action,…` into `map`, ignoring bad entries.
fn apply(spec: &str, map: &mut HashMap<String, Site>) {
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((site, action)) = part.split_once('=') else {
            continue;
        };
        let Some(action) = parse_action(action.trim()) else {
            continue;
        };
        map.insert(
            site.trim().to_string(),
            Site {
                action,
                hits: 0,
                fired: false,
            },
        );
    }
}

/// Reads `PROTEST_FAILPOINTS` into the table; runs at most once.
fn load_env() {
    let mut map = table().lock().unwrap();
    if STATE.load(Ordering::Acquire) != UNINIT {
        return;
    }
    if let Ok(spec) = std::env::var("PROTEST_FAILPOINTS") {
        apply(&spec, &mut map);
    }
    let state = if map.is_empty() { DISABLED } else { ENABLED };
    STATE.store(state, Ordering::Release);
}

/// Replaces the whole failpoint configuration with `spec`
/// (`site=action,…`, same syntax as `PROTEST_FAILPOINTS`). An empty
/// spec disables every site. Process-global: chaos tests sharing one
/// binary must serialize around it.
pub fn configure(spec: &str) {
    let mut map = table().lock().unwrap();
    if STATE.load(Ordering::Acquire) == UNINIT {
        // Consume the env exactly once so a later `reset` is final.
        if let Ok(env_spec) = std::env::var("PROTEST_FAILPOINTS") {
            apply(&env_spec, &mut map);
        }
    }
    map.clear();
    apply(spec, &mut map);
    let state = if map.is_empty() { DISABLED } else { ENABLED };
    STATE.store(state, Ordering::Release);
}

/// Clears every configured site (including environment-derived ones).
pub fn reset() {
    configure("");
}

/// Polls a named site. Returns `true` when the configured action fires
/// — the caller injects its fault; delay actions sleep here and return
/// `false`. Unconfigured sites (the production case) cost one relaxed
/// atomic load.
pub fn hit(site: &str) -> bool {
    match STATE.load(Ordering::Relaxed) {
        DISABLED => return false,
        UNINIT => load_env(),
        _ => {}
    }
    if STATE.load(Ordering::Acquire) == DISABLED {
        return false;
    }
    let mut delay = None;
    let fire = {
        let mut map = table().lock().unwrap();
        let Some(entry) = map.get_mut(site) else {
            return false;
        };
        entry.hits += 1;
        match entry.action {
            Action::Always => true,
            Action::Off => false,
            Action::OneIn(n) => entry.hits % n == 0,
            Action::DelayMs(ms) => {
                delay = Some(Duration::from_millis(ms));
                false
            }
            Action::Once => {
                let fire = !entry.fired;
                entry.fired = true;
                fire
            }
        }
    };
    if let Some(d) = delay {
        std::thread::sleep(d);
    }
    fire
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The table is process-global; tests in this module serialize on it.
    fn guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unconfigured_sites_never_fire() {
        let _g = guard();
        configure("");
        assert!(!hit("nope.some.site"));
    }

    #[test]
    fn one_in_n_fires_deterministically() {
        let _g = guard();
        configure("t.oneinthree=1in3");
        let fired: Vec<bool> = (0..9).map(|_| hit("t.oneinthree")).collect();
        assert_eq!(
            fired,
            [false, false, true, false, false, true, false, false, true]
        );
        reset();
    }

    #[test]
    fn once_fires_exactly_once_and_always_always() {
        let _g = guard();
        configure("t.once=once,t.always=always");
        assert!(hit("t.once"));
        assert!(!hit("t.once"));
        assert!(hit("t.always"));
        assert!(hit("t.always"));
        reset();
    }

    #[test]
    fn delay_sleeps_but_does_not_fire() {
        let _g = guard();
        configure("t.delay=5ms");
        let start = std::time::Instant::now();
        assert!(!hit("t.delay"));
        assert!(start.elapsed() >= Duration::from_millis(5));
        reset();
    }

    #[test]
    fn bad_entries_are_ignored() {
        let _g = guard();
        configure("t.bad=1in0,=always,nonsense,t.ok=on");
        assert!(!hit("t.bad"));
        assert!(hit("t.ok"));
        reset();
    }
}
