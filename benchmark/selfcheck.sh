#!/usr/bin/env bash
# Runs the whole benchmark twice on one build and fails unless every
# end-to-end metric of the second set is within its own bound of the
# first set's, and the exact-repeat checks are identical.
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --selfcheck "$@"
