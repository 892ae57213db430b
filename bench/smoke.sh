#!/usr/bin/env bash
# Correctness-only pass over every workload: about a second of load each,
# every executed op re-evaluated in process, the golden pins of the default
# seed, the oracle subset and (update_read) the kill-and-recover step. No
# metric is compared. Meant for a CI step; takes about 20 s after the build.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" -smoke "$@"
