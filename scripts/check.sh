#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, static analysis, and the test suite.
# Offline-friendly: everything runs with --offline against the committed
# Cargo.lock, so it works in network-less containers.
#
# Usage: scripts/check.sh [--quick|--tcp|--tsan|--miri]
#   --quick   skip the slower integration suites (unit tests only)
#   --tcp     TCP transport tier: transport conformance suite on both
#             backends, remote-driver protocol tests, the §5.4 failover
#             cases over both transports, and the 3-process multinode smoke
#             (kill -9 + restart, zero audit violations)
#   --tsan    ThreadSanitizer tier over the concurrency-heavy crates
#             (nightly + rust-src; skipped with a message if unavailable)
#   --miri    Miri tier over sirep-common / sirep-storage
#             (nightly + miri component; skipped with a message if unavailable)

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"

# ------------------------------------------------------------- sanitizers
# These tiers need nightly extras that the offline container cannot
# install (`rustup component add` requires the network), so they detect
# what is present and skip with an explanation instead of failing. CI
# installs the components and runs both tiers on every push to main.
# Exact invocations and rationale: DESIGN.md §13.5.

if [[ "$MODE" == "--tcp" ]]; then
    echo "==> transport conformance suite (SimGroup + TcpGroup backends)"
    cargo test --offline -p sirep-gcs --lib conformance -q
    echo "==> remote driver protocol tests (framed client/server)"
    cargo test --offline -p sirep-driver --lib remote -q
    echo "==> §5.4 failover: every cell over a scripted link, the end-to-end cases over both transports"
    cargo test --offline --test failover_table --test failover -q
    echo "==> telemetry plane tests (frame round-trips, corrupt frames, scrape resilience)"
    cargo test --offline -p sirep-driver --lib telemetry -q
    echo "==> multinode smoke: kill -9 + restart, telemetry report parses, scraped audit clean"
    scripts/multinode.sh 3
    echo "OK: TCP tier green."
    exit 0
fi

if [[ "$MODE" == "--tsan" ]]; then
    echo "==> ThreadSanitizer tier (sirep-common, sirep-storage, sirep-gcs)"
    if ! rustup toolchain list 2>/dev/null | grep -q nightly; then
        echo "SKIP: no nightly toolchain installed (rustup toolchain install nightly)."
        exit 0
    fi
    SYSROOT="$(rustc +nightly --print sysroot)"
    if [[ ! -f "$SYSROOT/lib/rustlib/src/rust/library/Cargo.lock" ]]; then
        # Without -Zbuild-std the precompiled std is uninstrumented: TSan
        # cannot see the futex-based std Mutex's happens-before edges and
        # reports a false race on every lock-protected field (we verified
        # this: it flags Semaphore::release vs ::acquire, both of which
        # hold the same mutex). Instrumenting std needs rust-src.
        rustup component add rust-src --toolchain nightly 2>/dev/null || {
            echo "SKIP: rust-src not installed and not installable offline."
            echo "      CI runs this tier; locally: rustup component add rust-src --toolchain nightly"
            exit 0
        }
    fi
    RUSTFLAGS="-Zsanitizer=thread" CARGO_TARGET_DIR=target/tsan \
        cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
        -p sirep-common -p sirep-storage -p sirep-gcs --lib
    echo "OK: ThreadSanitizer tier green."
    exit 0
fi

if [[ "$MODE" == "--miri" ]]; then
    echo "==> Miri tier (sirep-common, sirep-storage)"
    if ! cargo +nightly miri --version >/dev/null 2>&1; then
        echo "SKIP: miri not installed and not installable offline."
        echo "      CI runs this tier; locally: rustup component add miri --toolchain nightly"
        exit 0
    fi
    # -Zmiri-disable-isolation: the clock module reads real time. The
    # precise_sleep statistical tests assert scheduler accuracy that the
    # interpreter cannot provide, so they are skipped by name.
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test -p sirep-common -p sirep-storage --lib \
        -- --skip clock::tests::precise_sleep
    echo "OK: Miri tier green."
    exit 0
fi

QUICK=0
[[ "$MODE" == "--quick" ]] && QUICK=1

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# -D warnings also enforces clippy.toml's clock, RNG and hash-container bans
# in the deterministic modules and the panic bans on protocol paths (both
# opted into per module, DESIGN.md §13.4).
echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> sirep-lint (workspace invariant checker; see lint.toml)"
# Build first so the wall-clock budget below measures analysis, not
# compilation. --deny-stale: a suppression matching nothing is an error
# here and in CI, so dead justifications cannot accumulate. The JSON
# report is what CI uploads as an artifact when the gate fails.
cargo build --offline -q -p sirep-lint
LINT_START=$SECONDS
cargo run --offline -q -p sirep-lint -- --root . --json results/LINT.json --deny-stale
LINT_ELAPSED=$(( SECONDS - LINT_START ))
echo "    sirep-lint wall clock: ${LINT_ELAPSED}s"
if (( LINT_ELAPSED > 20 )); then
    echo "FAIL: sirep-lint took ${LINT_ELAPSED}s (budget: 20s). The analysis runs on every"
    echo "      commit; if it cannot stay inside the budget, fix the regression (the CFG"
    echo "      pass is expected to be linear in tokens per function)."
    exit 1
fi

echo "==> results/LOC.json is current (regenerate: scripts/loc.sh --against <parent checkout>)"
# The commit line names whatever HEAD was when each side was counted; the
# counts are what must match this tree.
if ! diff <(sed -n '/^"after":/,$p' results/LOC.json | sed '/"commit":/d; $d; s/^"after": //') \
          <(scripts/loc.sh | sed '/"commit":/d'); then
    echo "FAIL: results/LOC.json's \"after\" block is not what scripts/loc.sh counts in this tree."
    exit 1
fi

echo "==> cargo check benchmark/ (its manifest names the six crates' inert \`trace\` feature and calls their APIs)"
cargo check --offline --locked --manifest-path benchmark/Cargo.toml

if [[ "$QUICK" == "1" ]]; then
    echo "==> cargo test (unit tests only)"
    cargo test --offline --workspace --lib -q
    echo "==> sirep-lint rule fixtures"
    cargo test --offline -p sirep-lint --test fixtures_test -q
    echo "==> certification differential property tests (indexed vs scan oracle)"
    cargo test --offline -p sirep-core --lib validation::differential -q
    echo "==> sequencer core property test (tests/seqlog.rs: every stream a contiguous slice of one log)"
    cargo test --offline --test seqlog -q
    echo "==> wake by need: queue reports, TcpMember framing and blocked recv, wake-up budget, no lost wake-up, a validator that never waits and the hidden deadlock (§4.2)"
    cargo test --offline --test tocommit_queue --test tcp_member --test wakeups --test validator_never_waits --test hidden_deadlock -q
    echo "==> replica core property tests (tests/replica_core.rs: Theorem 1, the hole rule, recovery, P7)"
    cargo test --offline --test replica_core -q
    echo "==> Def. 3 from journals (tests/one_copy_si.rs: named histories, the event-to-op mapping, random scripts)"
    cargo test --offline --test one_copy_si -q
    echo "==> sequencer fan-out: the appender sends, writers wake only for a lagging member"
    cargo test --offline --test tcp_tier -q
    echo "==> sirep-model (exhaustive protocol exploration, quick scopes)"
    cargo run --offline -q --release -p sirep-model -- --quick --emit results
    echo "==> chaos harness (2 pinned seeds)"
    SIREP_CHAOS_SEEDS=2 cargo test --offline --test chaos_faults -q
else
    echo "==> cargo test (workspace; seqlog unit tests + tests/seqlog.rs cover the one sequencer core)"
    cargo test --offline --workspace -q
    echo "==> si_anomalies example (SI anomalies on a live cluster; Def. 3 on its journals)"
    cargo run --offline -q --example si_anomalies
    echo "==> sirep-model (exhaustive protocol exploration, all scopes + mutant self-check)"
    cargo run --offline -q --release -p sirep-model -- --full --self-check --emit results
    echo "==> chaos harness (256-seed sweep, ≈ 2 min: wide enough to have met the old ≈ 1.5 % failover hang; a hung seed fails by name)"
    SIREP_CHAOS_SEEDS=256 cargo test --offline --test chaos_faults -q
fi

echo "OK: fmt, clippy, sirep-lint, benchmark check, tests all green."
