//! Percentiles and the request ledger: what was due, sent and answered,
//! and which requests count as failed.

use std::collections::HashMap;
use std::time::Duration;

/// Tail percentiles the benchmark may report, highest first.
const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `p` among `n` samples,
/// in integer per-mille so that p99 of 1000 samples is exactly rank 990.
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest percentile of the ladder that leaves at least
/// [`MIN_BEYOND`] samples beyond it at `n` samples, or `None` if even
/// p90 does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| n.saturating_sub(rank(*p, n)) >= MIN_BEYOND)
}

/// Nearest-rank percentile of `samples` (any order); 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()) - 1]
}

/// Median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Request class, as the client sends it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A `ClientRequest::Sign`.
    Sign,
    /// A `ClientRequest::Verify`.
    Verify,
}

/// One request's timeline, as offsets from the start of the measured
/// window.
#[derive(Clone, Debug)]
struct Entry {
    class: Class,
    due: Duration,
    sent: Option<Duration>,
    answered: Option<Duration>,
    wrong: bool,
}

/// Every request of a measured window: when it was due, when it was
/// sent, when it was answered and whether the answer was right.
///
/// Latency is always taken from the due time, so a generator that falls
/// behind charges its lag to the requests it delayed. A request fails
/// if it is unanswered within `deadline` of its due time, if its answer
/// is wrong, or if the whole deployment is condemned (its mesh died, or
/// its audit summary disagrees with the client's counts); failed
/// requests stay in the denominator.
#[derive(Clone, Debug)]
pub struct Ledger {
    entries: Vec<Entry>,
    by_id: HashMap<u64, usize>,
    deadline: Duration,
    condemned: Option<String>,
}

impl Ledger {
    /// An empty ledger whose requests must be answered within
    /// `deadline` of their due time.
    pub fn new(deadline: Duration) -> Self {
        Ledger {
            entries: Vec::new(),
            by_id: HashMap::new(),
            deadline,
            condemned: None,
        }
    }

    /// Registers request `id`, due at `due`.
    pub fn expect(&mut self, id: u64, class: Class, due: Duration) {
        self.by_id.insert(id, self.entries.len());
        self.entries.push(Entry {
            class,
            due,
            sent: None,
            answered: None,
            wrong: false,
        });
    }

    /// Moves the due time of a request not yet sent (a closed-loop caller
    /// is due when its previous request is answered).
    pub fn set_due(&mut self, id: u64, due: Duration) {
        if let Some(&i) = self.by_id.get(&id) {
            self.entries[i].due = due;
        }
    }

    /// Records that request `id` went out at `at`.
    pub fn sent(&mut self, id: u64, at: Duration) {
        if let Some(&i) = self.by_id.get(&id) {
            self.entries[i].sent = Some(at);
        }
    }

    /// Records the first answer to request `id`; `right` is the output
    /// check. Returns `false` for an unknown id or a second answer.
    pub fn answered(&mut self, id: u64, at: Duration, right: bool) -> bool {
        let Some(&i) = self.by_id.get(&id) else {
            return false;
        };
        let e = &mut self.entries[i];
        if e.answered.is_some() {
            e.wrong = true;
            return false;
        }
        e.answered = Some(at);
        e.wrong |= !right;
        true
    }

    /// Marks an already answered request's output wrong (for checks that
    /// run after the window, such as signature verification).
    pub fn mark_wrong(&mut self, id: u64) {
        if let Some(&i) = self.by_id.get(&id) {
            self.entries[i].wrong = true;
        }
    }

    /// Fails every request: the deployment died or its audit failed.
    pub fn condemn(&mut self, why: impl Into<String>) {
        self.condemned.get_or_insert_with(|| why.into());
    }

    /// Moves every request of `other` (whose times count from its own
    /// window's start) into this ledger; a condemned `other` condemns
    /// this one.
    pub fn absorb(&mut self, other: Ledger) {
        for (id, i) in other.by_id {
            self.by_id.insert(id, self.entries.len() + i);
        }
        self.entries.extend(other.entries);
        if let Some(why) = other.condemned {
            self.condemn(why);
        }
    }

    /// Number of requests registered.
    pub fn attempted(&self) -> usize {
        self.entries.len()
    }

    /// Number of requests answered at all (on time or late).
    pub fn answered_count(&self, class: Class) -> usize {
        self.entries
            .iter()
            .filter(|e| e.class == class && e.answered.is_some())
            .count()
    }

    /// Number of registered requests not yet answered.
    pub fn outstanding(&self) -> usize {
        self.entries.iter().filter(|e| e.answered.is_none()).count()
    }

    /// Latest instant by which every request's deadline has passed.
    pub fn last_deadline(&self) -> Duration {
        self.entries
            .iter()
            .map(|e| e.due + self.deadline)
            .max()
            .unwrap_or_default()
    }

    fn ok(&self, e: &Entry) -> bool {
        !e.wrong
            && e.answered
                .is_some_and(|a| a.saturating_sub(e.due) <= self.deadline)
    }

    /// Number of failed requests.
    pub fn failed(&self) -> usize {
        if self.condemned.is_some() {
            return self.entries.len();
        }
        self.entries.iter().filter(|e| !self.ok(e)).count()
    }

    /// Latencies (due → answer, ms) of the requests answered on time.
    pub fn latencies_ms(&self, class: Option<Class>) -> Vec<f64> {
        self.entries
            .iter()
            .filter(|e| class.is_none_or(|c| c == e.class) && self.ok(e))
            .map(|e| ms(e.answered.expect("ok implies answered") - e.due))
            .collect()
    }

    /// Generator lag (due → send, ms) of every sent request.
    pub fn lags_ms(&self) -> Vec<f64> {
        self.entries
            .iter()
            .filter_map(|e| e.sent.map(|s| ms(s.saturating_sub(e.due))))
            .collect()
    }

    /// First due time and last answer of the window.
    pub fn span(&self) -> (Duration, Duration) {
        let first = self.entries.iter().map(|e| e.due).min().unwrap_or_default();
        let last = self
            .entries
            .iter()
            .filter_map(|e| e.answered)
            .max()
            .unwrap_or(first);
        (first, last)
    }

    /// Every request's timeline, in id order, for trace spans.
    pub fn timelines(&self) -> Vec<Timeline> {
        let mut ids: Vec<(&u64, &usize)> = self.by_id.iter().collect();
        ids.sort();
        ids.into_iter()
            .map(|(id, &i)| {
                let e = &self.entries[i];
                Timeline {
                    id: *id,
                    class: e.class,
                    due: e.due,
                    sent: e.sent,
                    answered: e.answered,
                }
            })
            .collect()
    }
}

/// One request's timeline, as offsets from the window start.
#[derive(Clone, Copy, Debug)]
pub struct Timeline {
    /// Request id.
    pub id: u64,
    /// Request class.
    pub class: Class,
    /// When it was due.
    pub due: Duration,
    /// When it went out.
    pub sent: Option<Duration>,
    /// When its answer arrived.
    pub answered: Option<Duration>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1024), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(2048), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(512), Some(95.0));
        assert_eq!(tail_percentile(333), Some(95.0));
        assert_eq!(tail_percentile(300), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn latency_counts_from_due_time_when_generator_is_behind() {
        let mut l = Ledger::new(d(1000));
        // Both due at 0; the generator only got the second out at 40 ms.
        l.expect(1, Class::Verify, d(0));
        l.expect(2, Class::Verify, d(0));
        l.sent(1, d(0));
        l.sent(2, d(40));
        assert!(l.answered(1, d(10), true));
        assert!(l.answered(2, d(50), true));
        let mut lat = l.latencies_ms(None);
        lat.sort_by(f64::total_cmp);
        assert_eq!(lat, vec![10.0, 50.0], "the 40 ms lag is charged");
        let mut lag = l.lags_ms();
        lag.sort_by(f64::total_cmp);
        assert_eq!(lag, vec![0.0, 40.0]);
    }

    #[test]
    fn closed_loop_due_moves_to_previous_answer() {
        let mut l = Ledger::new(d(1000));
        l.expect(7, Class::Sign, d(0));
        l.set_due(7, d(300));
        l.sent(7, d(301));
        l.answered(7, d(350), true);
        assert_eq!(l.latencies_ms(Some(Class::Sign)), vec![50.0]);
    }

    #[test]
    fn failures_stay_in_the_denominator() {
        let mut l = Ledger::new(d(100));
        for id in 0..4 {
            l.expect(id, Class::Sign, d(0));
        }
        l.answered(0, d(50), true); // fine
        l.answered(1, d(150), true); // late
        l.answered(2, d(50), false); // wrong
                                     // 3 never answered
        assert_eq!(l.attempted(), 4);
        assert_eq!(l.failed(), 3);
        assert_eq!(l.latencies_ms(None), vec![50.0]);
        assert!(!l.answered(0, d(60), true), "a second answer is wrong");
        assert_eq!(l.failed(), 4);
    }

    #[test]
    fn absorbed_ledgers_keep_their_own_windows() {
        let mut all = Ledger::new(d(100));
        let mut a = Ledger::new(d(100));
        a.expect(1, Class::Sign, d(0));
        a.answered(1, d(30), true);
        let mut b = Ledger::new(d(100));
        b.expect(2, Class::Sign, d(0));
        b.answered(2, d(70), true);
        all.absorb(a);
        all.absorb(b);
        assert_eq!(all.attempted(), 2);
        assert_eq!(all.failed(), 0);
        assert_eq!(all.latencies_ms(None), vec![30.0, 70.0]);
        assert!(!all.answered(2, d(80), true), "ids survive the merge");
        let mut c = Ledger::new(d(100));
        c.expect(3, Class::Verify, d(0));
        c.condemn("front-end died");
        all.absorb(c);
        assert_eq!(all.failed(), 3);
    }

    #[test]
    fn condemned_deployment_fails_everything() {
        let mut l = Ledger::new(d(100));
        for id in 0..3 {
            l.expect(id, Class::Verify, d(0));
            l.answered(id, d(1), true);
        }
        assert_eq!(l.failed(), 0);
        l.condemn("player 2 exited");
        l.condemn("later reason is ignored");
        assert_eq!(l.failed(), 3);
        assert_eq!(l.attempted(), 3);
        assert_eq!(l.condemned.as_deref(), Some("player 2 exited"));
    }
}
