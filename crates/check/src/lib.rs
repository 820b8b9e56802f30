//! Property tests that shrink. A property is a closure over a [`Source`]
//! of `u64` choices; [`check`] runs it on random choice lists seeded from
//! the test name and case. When a run panics, its recorded choices are
//! shrunk: spans deleted (halving down to single choices), then choices
//! lowered (to 0, else by halving toward the least that still fails),
//! keeping a candidate only while the property still panics. Draws past
//! the end return 0, and 0 is every draw's simplest value, so shrinking
//! never needs to know what a choice means (MacIver & Donaldson, ECOOP
//! 2020). The failure reports the minimal choices and the property's own
//! message from that run; [`replay`] pins such a list in a test.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// Re-runs of the property that shrinking one failure may spend, so even
/// a property that takes seconds per run reports in bounded time.
const SHRINK_RUNS: usize = 2_000;

/// The choices of one run of a property: replayed from a list, or drawn
/// at random and recorded.
pub struct Source {
    given: Vec<u64>,
    /// splitmix64 state of a random run; `None` replays `given`.
    rng: Option<u64>,
    drawn: Vec<u64>,
}

impl Source {
    fn new(given: Vec<u64>, rng: Option<u64>) -> Source { Source { given, rng, drawn: Vec::new() } }

    /// The next choice, below `bound` (0: any `u64`).
    fn choose(&mut self, bound: u64, fresh: impl FnOnce(&mut u64) -> u64) -> u64 {
        let raw = match &mut self.rng {
            Some(state) => fresh(state),
            None => self.given.get(self.drawn.len()).copied().unwrap_or(0),
        };
        let v = if bound == 0 { raw } else { raw % bound };
        self.drawn.push(v);
        v
    }

    /// Any `u64`.
    pub fn any_u64(&mut self) -> u64 {
        self.choose(0, splitmix)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) has no value");
        self.choose(n, splitmix)
    }

    /// A value in `range`, shrinking toward its start.
    pub fn range<T: TryFrom<u64> + TryInto<u64>>(&mut self, range: Range<T>) -> T {
        let wide = |x: T| x.try_into().ok().expect("range bound fits a u64");
        let (lo, hi) = (wide(range.start), wide(range.end));
        assert!(lo < hi, "empty range {lo}..{hi}");
        T::try_from(lo + self.below(hi - lo)).ok().expect("inside the range")
    }

    /// A coin flip, shrinking toward `false`.
    pub fn bool(&mut self) -> bool {
        self.below(2) == 1
    }

    /// A vector of `len` elements (a range), each drawn by `element`.
    /// Every element past `len.start` is preceded by its own continue
    /// choice, so deleting an element's span of choices deletes the
    /// element, and lowering a continue choice to 0 ends the vector.
    pub fn vec<T>(&mut self, len: Range<usize>, mut element: impl FnMut(&mut Source) -> T) -> Vec<T> {
        assert!(len.start < len.end, "empty length range");
        // A random run picks its length up front, uniformly.
        let target = match &mut self.rng {
            Some(state) => len.start + (splitmix(state) % (len.end - len.start) as u64) as usize,
            None => 0,
        };
        let mut out: Vec<T> = (0..len.start).map(|_| element(self)).collect();
        while out.len() + 1 < len.end && self.choose(2, |_| u64::from(out.len() < target)) == 1 {
            out.push(element(self));
        }
        out
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of case `case` of `name`: FNV-1a over the name, mixed with
/// the case index.
fn seed(name: &str, case: u32) -> u64 {
    let fnv = name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    fnv ^ u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Run `prop` on `cases` random choice sequences; if one fails, shrink
/// it and panic with the minimal sequence and the property's message.
pub fn check(name: &str, cases: u32, prop: impl Fn(&mut Source)) {
    for case in 0..cases {
        if let Some((choices, message)) = falsify(name, case, &prop) {
            panic!("property {name} failed at case {case}; minimal choices (pin with bluedbm_check::replay): {choices:?}\n{message}");
        }
    }
}

/// Run `prop` on exactly `choices` (draws past their end return 0).
pub fn replay(choices: &[u64], prop: impl FnOnce(&mut Source)) {
    prop(&mut Source::new(choices.to_vec(), None));
}

/// Case `case` of `name`: `None` if it passes, else its shrunk choices
/// and the message of their run.
fn falsify(name: &str, case: u32, prop: &dyn Fn(&mut Source)) -> Option<(Vec<u64>, String)> {
    let mut source = Source::new(Vec::new(), Some(seed(name, case)));
    let message = run(prop, &mut source)?;
    Some(Shrink { prop, best: source.drawn, message, runs: 0 }.shrink())
}

thread_local! {
    /// Whether a panic on this thread is one [`run`] catches.
    static CATCHING: Cell<bool> = const { Cell::new(false) };
    /// The report of the last panic [`run`] caught on this thread.
    static CAUGHT: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Run `prop` on `source`: the panic report (location and message) if it
/// panicked. Caught panics are not printed; others go to the prior hook.
fn run(prop: &dyn Fn(&mut Source), source: &mut Source) -> Option<String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prior = panic::take_hook();
        panic::set_hook(Box::new(move |info| match CATCHING.get() {
            true => CAUGHT.set(info.to_string()),
            false => prior(info),
        }));
    });
    CATCHING.set(true);
    let failed = panic::catch_unwind(AssertUnwindSafe(|| prop(source))).is_err();
    CATCHING.set(false);
    failed.then(|| CAUGHT.take())
}

/// A failing choice list being shrunk, and the re-runs spent on it.
struct Shrink<'a> { prop: &'a dyn Fn(&mut Source), best: Vec<u64>, message: String, runs: usize }

impl Shrink<'_> {
    /// Run `candidate`; adopt what it drew if that still fails and is
    /// simpler (shortlex: fewer choices, then lexicographically smaller).
    fn attempt(&mut self, candidate: Vec<u64>) -> bool {
        if self.runs == SHRINK_RUNS { return false }
        self.runs += 1;
        let mut source = Source::new(candidate, None);
        let Some(message) = run(self.prop, &mut source) else { return false };
        let keep = (source.drawn.len(), &source.drawn) < (self.best.len(), &self.best);
        if keep { (self.best, self.message) = (source.drawn, message) }
        keep
    }

    /// [`Shrink::attempt`] `best` with choice `i` set to `v`.
    fn lower(&mut self, i: usize, v: u64) -> bool {
        let mut candidate = self.best.clone();
        candidate[i] = v;
        self.attempt(candidate)
    }

    /// The simplest failing choices found, and the message of their run.
    fn shrink(mut self) -> (Vec<u64>, String) {
        loop {
            let before = self.best.clone();
            // Delete spans, halving down to one choice; spans of up to eight
            // try every offset, so a short element goes wherever it starts.
            let mut size = self.best.len().next_power_of_two();
            while size > 1 {
                size /= 2;
                let mut at = 0;
                while at + size <= self.best.len() {
                    if !self.attempt([&self.best[..at], &self.best[at + size..]].concat()) {
                        at += if size <= 8 { 1 } else { size / 2 };
                    }
                }
            }
            // Lower each choice: to 0, else search down for the least
            // value that still fails.
            let mut i = 0;
            while i < self.best.len() {
                if self.best[i] > 0 && !self.lower(i, 0) {
                    let (mut lo, mut hi) = (0, self.best[i]);
                    while lo + 1 < hi && i < self.best.len() {
                        let mid = lo + (hi - lo) / 2;
                        if self.lower(i, mid) { hi = mid } else { lo = mid }
                    }
                }
                i += 1;
            }
            if self.best == before || self.runs == SHRINK_RUNS {
                return (self.best, self.message);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinks_to_the_minimal_counterexample() {
        // Fails when a vector holds three elements and one is >= 100.
        let prop = |s: &mut Source| {
            let v = s.vec(0..12, |s| s.below(1000));
            assert!(v.len() < 3 || v.iter().all(|&x| x < 100), "{v:?}");
        };
        let (choices, message) = (0..16).find_map(|case| falsify("big", case, &prop)).expect("a case fails");
        // Three elements behind their continue choices, then the end.
        let mut elements: Vec<u64> = choices.chunks(2).filter(|c| c.len() == 2).map(|c| c[1]).collect();
        elements.sort_unstable();
        assert_eq!((choices.len(), elements), (7, vec![0, 0, 100]), "{choices:?}");
        assert!(message.contains("100"), "{message}");
    }

    #[test]
    fn draws_stay_in_bounds_and_replay_exactly() {
        let draw = |s: &mut Source| (s.range(3u8..17), s.below(5), s.bool(), s.vec(2..6, |s| s.range(10usize..20)));
        for case in 0..64 {
            let mut source = Source::new(Vec::new(), Some(seed("bounds", case)));
            let first = draw(&mut source);
            let (a, b, _, v) = &first;
            assert!((3..17).contains(a) && *b < 5 && (2..6).contains(&v.len()) && v.iter().all(|x| (10..20).contains(x)));
            replay(&source.drawn, |s| assert_eq!(draw(s), first));
        }
        // Past the end every draw is its simplest value.
        replay(&[], |s| assert_eq!(draw(s), (3, 0, false, vec![10, 10])));
    }

    #[test]
    fn a_failure_names_the_test_case_and_choices() {
        let err = panic::catch_unwind(|| check("always_fails", 4, |s| assert!(s.below(10) > 10, "boom")))
            .expect_err("the property fails");
        let text = err.downcast_ref::<String>().expect("formatted panic");
        assert!(text.starts_with("property always_fails failed at case 0"), "{text}");
        assert!(text.contains("replay): [0]") && text.contains("boom"), "{text}");
        check("always_passes", 32, |s| assert!(s.any_u64() >= s.below(1)));
    }
}
