//! `--explain <check-id>` texts. One entry per check id; `docs/ANALYZER.md`
//! mirrors these, and the fixture suite asserts every id listed here has
//! a fixture exercising it.

/// `(check-id, explanation)` for every diagnostic the analyzer emits.
pub const EXPLANATIONS: &[(&str, &str)] = &[
    (
        "lock-order",
        "A lock was acquired while holding another lock that ranks *after* it \
in the declared partial order (analyzer.toml `[locks] order`). The store's \
discipline is ingest -> sources -> shard -> registry: every thread that takes \
more than one of these must take them in that order, or two threads can \
deadlock by each holding the lock the other wants. Fix by reordering the \
acquisitions, by copying what you need out of the first guard and dropping \
it before taking the second, or — if the analysis is wrong about a guard's \
lifetime — annotate with `// analyzer: allow(lock-order) -- <why>`.",
    ),
    (
        "lock-double",
        "The same lock (or another instance resolved to the same declared \
name) was acquired twice on one path while the first guard was still held. \
std::sync mutexes are not reentrant: self-deadlock. Locks listed in \
`multi_instance` (the shard array) are exempt, since sibling shards are \
distinct mutexes — but acquiring the *same* shard twice still deadlocks, \
which this analysis cannot see; keep shard loops index-disjoint. Fix by \
reusing the existing guard, or scope the first acquisition so it drops \
before the second.",
    ),
    (
        "panic-unwrap",
        "`.unwrap()` on a manifest-listed panic-free path (analyzer.toml \
`[panic] paths`). A panic on the request, WAL, or refit path poisons locks \
and strands half-applied state. Return a typed error, map it to a logged \
HTTP 500, or use the poison-tolerant sync wrappers \
(crates/serve/src/sync.rs). If the value provably cannot be None/Err, \
annotate with `// analyzer: allow(panic-unwrap) -- <the invariant>`.",
    ),
    (
        "panic-expect",
        "`.expect(..)` on a manifest-listed panic-free path — same class as \
panic-unwrap; the message string does not make the panic safe. Return a \
typed error or annotate with the invariant that holds. Lock poisoning is \
the one sanctioned use and lives behind crates/serve/src/sync.rs.",
    ),
    (
        "panic-macro",
        "`panic!` / `unreachable!` / `todo!` / `unimplemented!` on a \
manifest-listed panic-free path. Convert to an error return (the serve \
crate's error enums all have a variant for \"internal invariant broken\"), \
or annotate with a reason if the arm is truly unreachable by construction.",
    ),
    (
        "panic-index",
        "Slice/array indexing (`xs[i]`, `&buf[a..b]`) on a manifest-listed \
panic-free path can panic on out-of-bounds. Prefer `.get(..)` / \
`.get_mut(..)` / `.split_at_checked(..)` with an error return. When the \
bound is locally evident (index produced by the same function, length \
checked on the line above), annotate with \
`// analyzer: allow(panic-index) -- <the bound>`.",
    ),
    (
        "log-print",
        "`println!` / `eprintln!` / `print!` / `eprint!` / `dbg!` inside the \
serving tree bypasses the leveled structured logger (level gate, \
target field, timestamps) and interleaves raw bytes with real log output. \
Use log_error!/log_warn!/log_info!/log_debug! from crates/serve/src/obs/log.rs. \
Binaries under src/bin/ own their stdout and are exempt.",
    ),
    (
        "forbidden-api",
        "A name banned by analyzer.toml `[[forbidden]]` outside its allowed \
paths. Current entries: `std::time::SystemTime::now` (all time reads go \
through the obs clock so tests can pin it), `std::process::exit` (only \
binaries may exit; library code returns errors so destructors and WAL \
flushes run), and `f64::max` (silently discards NaN — fold R-hat/probability \
streams with explicit NaN handling instead; this is the exact bug class the \
PR 3 convergence gate hit).",
    ),
    (
        "allow-syntax",
        "A `// analyzer: allow(...)` annotation that does not parse: missing \
check list, or missing the ` -- <reason>` tail. Reasons are mandatory — an \
allow without a recorded invariant is just a disabled check. Grammar: \
`// analyzer: allow(check-a, check-b) -- reason text`. Trailing on a line \
it covers that line; on its own line it covers the next line.",
    ),
];

/// Looks up the explanation for `id`.
pub fn explain(id: &str) -> Option<&'static str> {
    EXPLANATIONS
        .iter()
        .find(|(name, _)| *name == id)
        .map(|(_, text)| *text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_resolves_and_unknown_does_not() {
        for (id, _) in EXPLANATIONS {
            assert!(explain(id).is_some());
        }
        assert!(explain("no-such-check").is_none());
    }
}
