//! Output checks, run after the timed window.
//!
//! * Service: one client thread submits in stream order and each shard's
//!   channel is FIFO, so replaying the submit order against a shadow set
//!   predicts every reply exactly ([`replay`]).
//! * Dictionaries: per-key conservation — prefill plus successful inserts
//!   minus successful removes is 0 or 1 and matches a final lookup, whose
//!   value is the key-derived one ([`conservation`]).

use valois_server::{route, Outcome};

use crate::inputs::{key, kind, value_of, Kind};

/// Keys a `Scan` covers, starting at its key.
pub const SCAN_LEN: u32 = 16;

/// Log code: no reply (or a reply for another request) arrived.
pub const MISSING: u8 = 0xFB;
/// Log code: `Get` returned a value other than [`value_of`] its key.
pub const WRONG_VALUE: u8 = 0xFC;
/// Log code: `Server::submit` refused the request.
pub const REFUSED: u8 = 0xFD;
/// Log code: the reply's outcome variant does not fit the operation.
pub const WRONG_KIND: u8 = 0xFE;
/// Log code: `Outcome::Overloaded`.
pub const OVERLOADED: u8 = 0xFF;

/// One byte per reply: presence for `Get`, success for `Put`/`Del`, the
/// count for `Scan`, or one of the codes above.
pub fn encode(op: u32, outcome: Outcome) -> u8 {
    let k = key(op);
    match (kind(op), outcome) {
        (_, Outcome::Overloaded) => OVERLOADED,
        (Kind::Find, Outcome::Value(None)) => 0,
        (Kind::Find, Outcome::Value(Some(v))) if v == value_of(k) => 1,
        (Kind::Find, Outcome::Value(Some(_))) => WRONG_VALUE,
        (Kind::Insert, Outcome::Inserted(b)) | (Kind::Remove, Outcome::Deleted(b)) => u8::from(b),
        (Kind::Scan, Outcome::Scanned(n)) if n <= SCAN_LEN => n as u8,
        _ => WRONG_KIND,
    }
}

/// Replays `log` (the reply codes in submit order; request `i` carried
/// `stream[i % stream.len()]`) against a shadow set that starts with the
/// keys `initial` accepts. Returns the number of failed requests
/// (overloaded or refused), or the first wrong answer.
pub fn replay(
    stream: &[u32],
    log: &[u8],
    keys: u64,
    shards: usize,
    initial: impl Fn(u64) -> bool,
) -> Result<u64, String> {
    let mut present: Vec<bool> = (0..keys + u64::from(SCAN_LEN)).map(&initial).collect();
    let mut failed = 0;
    for (i, &got) in log.iter().enumerate() {
        let op = stream[i % stream.len()];
        let k = key(op) as usize;
        if got == REFUSED || (got == OVERLOADED && kind(op) == Kind::Insert) {
            failed += 1;
            continue;
        }
        let want = match kind(op) {
            Kind::Find => u8::from(present[k]),
            Kind::Insert => u8::from(!std::mem::replace(&mut present[k], true)),
            Kind::Remove => u8::from(std::mem::replace(&mut present[k], false)),
            Kind::Scan => {
                let shard = route(k as u64, shards);
                (k..k + SCAN_LEN as usize)
                    .filter(|&j| route(j as u64, shards) == shard && present[j])
                    .count() as u8
            }
        };
        if got != want {
            return Err(format!(
                "request {i} ({:?} {k}): reply code {got:#x}, shadow expects {want}",
                kind(op)
            ));
        }
    }
    Ok(failed)
}

/// Per-key conservation over `0..keys`: `prefilled(k)` plus the net
/// successful inserts in every thread's `tallies` must be 0 or 1, and must
/// agree with `find(k)`, whose value must be [`value_of`] `k`.
pub fn conservation(
    keys: u64,
    prefilled: impl Fn(u64) -> bool,
    tallies: &[&[i32]],
    find: impl Fn(u64) -> Option<u64>,
) -> Result<(), String> {
    for k in 0..keys {
        let net = i64::from(prefilled(k))
            + tallies
                .iter()
                .map(|t| i64::from(t[k as usize]))
                .sum::<i64>();
        match (net, find(k)) {
            (0, None) => {}
            (1, Some(v)) if v == value_of(k) => {}
            (net, found) => {
                return Err(format!(
                    "key {k}: prefill + inserts - removes = {net}, final find = {found:?}"
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::pack;

    /// Serves `stream` sequentially against a model, as a correct service
    /// would, and returns the reply log.
    fn honest_log(
        stream: &[u32],
        keys: u64,
        shards: usize,
        initial: impl Fn(u64) -> bool,
    ) -> Vec<u8> {
        let mut present: Vec<bool> = (0..keys + u64::from(SCAN_LEN)).map(initial).collect();
        stream
            .iter()
            .map(|&op| {
                let k = key(op);
                let outcome = match kind(op) {
                    Kind::Find => Outcome::Value(present[k as usize].then(|| value_of(k))),
                    Kind::Insert => {
                        Outcome::Inserted(!std::mem::replace(&mut present[k as usize], true))
                    }
                    Kind::Remove => {
                        Outcome::Deleted(std::mem::replace(&mut present[k as usize], false))
                    }
                    Kind::Scan => Outcome::Scanned(
                        (k..k + u64::from(SCAN_LEN))
                            .filter(|&j| {
                                route(j, shards) == route(k, shards) && present[j as usize]
                            })
                            .count() as u32,
                    ),
                };
                encode(op, outcome)
            })
            .collect()
    }

    fn sample_stream() -> Vec<u32> {
        let keys = crate::inputs::Keys::Uniform(64);
        crate::inputs::stream(11, 0, 2000, [40, 25, 25, 10], &keys)
    }

    #[test]
    fn replay_accepts_an_honest_log_and_flags_a_planted_wrong_outcome() {
        let stream = sample_stream();
        let even = |k: u64| k.is_multiple_of(2) && k < 64;
        let log = honest_log(&stream, 64, 2, even);
        assert_eq!(replay(&stream, &log, 64, 2, even), Ok(0));
        for i in [0, 777, 1999] {
            let mut bad = log.clone();
            bad[i] = if bad[i] == 0 { 1 } else { 0 };
            let err = replay(&stream, &bad, 64, 2, even).unwrap_err();
            assert!(err.starts_with(&format!("request {i} ")), "{err}");
        }
    }

    #[test]
    fn replay_counts_failures_and_rejects_wrong_values() {
        let stream = [
            pack(Kind::Insert, 3),
            pack(Kind::Find, 3),
            pack(Kind::Insert, 3),
        ];
        // A refused put leaves the key absent, so the later put succeeds.
        assert_eq!(replay(&stream, &[REFUSED, 0, 1], 8, 2, |_| false), Ok(1));
        assert_eq!(replay(&stream, &[OVERLOADED, 0, 1], 8, 2, |_| false), Ok(1));
        assert!(replay(&stream, &[1, WRONG_VALUE, 0], 8, 2, |_| false).is_err());
        assert!(replay(&stream[1..2], &[OVERLOADED], 8, 2, |_| false).is_err());
        assert_eq!(
            encode(pack(Kind::Find, 3), Outcome::Value(Some(9))),
            WRONG_VALUE
        );
        assert_eq!(
            encode(pack(Kind::Find, 3), Outcome::Deleted(true)),
            WRONG_KIND
        );
        assert_eq!(
            encode(pack(Kind::Find, 3), Outcome::Value(Some(value_of(3)))),
            1
        );
    }

    #[test]
    fn conservation_accepts_a_consistent_state_and_flags_planted_errors() {
        let prefilled = |k: u64| k < 2;
        // Key 0: prefilled, then removed. Key 1: prefilled. Key 2: inserted
        // once. Key 3: untouched.
        let t0 = [-1, 0, 1, 0];
        let t1 = [0, 0, 0, 0];
        let t2 = [0, 0, 1, 0];
        let t2_removed = [0, 0, -1, 0];
        let state = |k: u64| (k == 1 || k == 2).then(|| value_of(k));
        assert!(conservation(4, prefilled, &[&t0, &t1], state).is_ok());
        // Two successful inserts of key 2 and no remove: net 2; or inserted
        // once and removed once, yet still found.
        assert!(conservation(4, prefilled, &[&t0, &t2], state).is_err());
        assert!(conservation(4, prefilled, &[&t0, &t2_removed], state).is_err());
        // A wrong value under a present key.
        let wrong = |k: u64| (k == 1 || k == 2).then_some(k);
        assert!(conservation(4, prefilled, &[&t0, &t1], wrong).is_err());
        // A key the tallies say is present but the final find misses.
        assert!(
            conservation(4, prefilled, &[&t0, &t1], |k| (k == 1).then(|| value_of(k))).is_err()
        );
    }
}
