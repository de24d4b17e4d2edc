#!/usr/bin/env bash
# Banned-pattern lint for the CDStore tree. Pure grep/awk — runs anywhere,
# no clang needed — and is wired into scripts/check.sh and CI as a blocking
# step. Each rule exists because the pattern defeated a checker we rely on:
#
#   1. Raw standard-library sync primitives outside src/util/sync.h.
#      The Clang thread-safety analysis only sees the annotated wrappers;
#      a raw std::mutex is invisible to it.
#   2. std::thread::detach(). A detached thread outlives every guard the
#      analysis can reason about (and ~ThreadPool joins, never detaches).
#   3. Naked `new` outside an immediate smart-pointer constructor. The tree
#      is ownership-annotated via unique_ptr; a bare new is a leak waiting
#      for an early return.
#   4. A bare `Finish();` statement. Status is [[nodiscard]], but a future
#      refactor could strip the attribute; keep the textual ban as a belt.
#   5. `::listen(` / `::accept(` outside src/net/tcp.cc. TcpServer is the one
#      server core (poll loop, worker pool, draining Stop()); a protocol is a
#      ConnHandler on it, not another accept loop. Tests are exempt: their
#      hostile fake peers need raw sockets.
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0
say() { echo "lint.sh: $*" >&2; }

# -- 1. raw sync primitives ------------------------------------------------
raw_sync='std::mutex|std::shared_mutex|std::condition_variable|std::lock_guard|std::unique_lock|std::shared_lock|std::scoped_lock'
hits=$(grep -rnE "$raw_sync" src tests --include='*.cc' --include='*.h' \
       | grep -v '^src/util/sync\.h:' || true)
if [ -n "$hits" ]; then
  say "raw standard-library sync primitive outside src/util/sync.h"
  say "use Mutex/SharedMutex/CondVar + guards from src/util/sync.h instead:"
  echo "$hits" >&2
  fail=1
fi

# -- 2. detach() -----------------------------------------------------------
hits=$(grep -rnE '\.detach\(\)' src tests --include='*.cc' --include='*.h' || true)
if [ -n "$hits" ]; then
  say "std::thread::detach() is banned; join via ThreadPool or scoped join:"
  echo "$hits" >&2
  fail=1
fi

# -- 3. naked new ----------------------------------------------------------
# Allow `new` only when the same line or the immediately preceding line
# shows it being handed straight to a smart pointer (covers the wrapped
# `std::unique_ptr<T>(\n    new T(...))` continuation style used here).
hits=$(find src tests -name '*.cc' -o -name '*.h' | sort | xargs awk '
  FNR == 1 { prev = "" }
  {
    code = $0
    sub(/\/\/.*/, "", code)  # the word "new" in prose is not an expression
    if (code ~ /(^|[^_[:alnum:]])new[[:space:]]+[_[:alnum:]:<]/ &&
        code !~ /unique_ptr|make_unique|shared_ptr/ &&
        prev !~ /unique_ptr|make_unique|shared_ptr/ &&
        $0 !~ /lint:allow-new/)
      printf "%s:%d:%s\n", FILENAME, FNR, $0
    prev = code
  }
' || true)
if [ -n "$hits" ]; then
  say "naked new outside a smart-pointer constructor:"
  echo "$hits" >&2
  fail=1
fi

# -- 4. ignored Finish() ---------------------------------------------------
hits=$(grep -rnE '^[[:space:]]*[A-Za-z_>.-]*Finish\(\);' src tests --include='*.cc' --include='*.h' \
       | grep -vE '\(void\)' || true)
if [ -n "$hits" ]; then
  say "Finish() returns Status; check it or cast to (void) with a comment:"
  echo "$hits" >&2
  fail=1
fi

# -- 5. one server core ----------------------------------------------------
hits=$(grep -rnE '::(listen|accept)\(' src bench examples --include='*.cc' --include='*.h' \
       | grep -v '^src/net/tcp\.cc:' || true)
if [ -n "$hits" ]; then
  say "::listen/::accept outside src/net/tcp.cc; serve through TcpServer::Listen"
  say "with a ConnHandler instead:"
  echo "$hits" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  say "FAILED"
  exit 1
fi
echo "lint.sh: clean"
