#!/usr/bin/env bash
# soak.sh — run an adversarial soak campaign against the suite: seeded
# random kernels through the real pipeline under fault injection,
# kill/resume cycles and artifact-cache churn, with the
# invariant oracles (determinism, replay conservation, metrics/trace
# accounting, resume identity) checked after every step, followed by
# the out-of-process SIGKILL crash-torture pass.
#
# CI runs the short version of this (soak-smoke); this script is for
# longer local campaigns. Oracle violations exit 4 and leave replayable
# repro bundles under $BUNDLES — attach them to the bug report.
#
# Environment overrides:
#   SEED      campaign seed (default: current unix time, printed)
#   DURATION  campaign length (default 60s)
#   FAULTS    fault plan (default transient+hang+throttle mix)
#   KILL      kill/resume cadence in steps (default 3)
#   CHURN     cache-churn goroutines (default 2)
#   TORTURE   SIGKILL torture cycles (default 3; 0 skips)
#   BUNDLES   repro bundle directory (default soak-bundles)
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${SEED:-$(date +%s)}"
DURATION="${DURATION:-60s}"
FAULTS="${FAULTS:-seed=9;transient:prob=0.2;hang:prob=0.05;throttle:prob=0.1,factor=0.5}"
KILL="${KILL:-3}"
CHURN="${CHURN:-2}"
TORTURE="${TORTURE:-3}"
BUNDLES="${BUNDLES:-soak-bundles}"

go build -o /tmp/amdmb-soak ./cmd/amdmb

echo "soak: seed=$SEED duration=$DURATION faults='$FAULTS'" >&2
/tmp/amdmb-soak soak -seed "$SEED" -duration "$DURATION" \
  -faults "$FAULTS" -kill-every "$KILL" -churn "$CHURN" \
  -bundles "$BUNDLES"

if [ "$TORTURE" -gt 0 ]; then
  /tmp/amdmb-soak soak -torture "$TORTURE"
fi
