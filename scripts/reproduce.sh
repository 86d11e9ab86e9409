#!/usr/bin/env bash
# Run every experiment config into out/<command>/ with all output
# formats, from the source tree: no install needed.  On a 2-core
# machine the chain takes about 17-19 s: 0.7-1.0 s of start-up per
# command (interpreter and imports), 3-4 s for each weyl fit and
# 1.4-1.5 s for trace-check.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-out}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run() {
    local name="$1" config="$2" dir="$3"
    echo "== $name ($config)"
    python3 -m openmaps "$name" --config "scripts/configs/$config" \
        --out "$out/$dir" --format all
}

run pressure        pressure.ini       pressure
run dimension       dimension.ini      dimension
run sigma-curve     sigma.ini          sigma
run billiard-orbits orbits.ini         orbits
run spectrum        spectrum.ini       spectrum
run weyl-fit        weyl.ini           weyl_nu_05
run weyl-fit        weyl_high_cut.ini  weyl_nu_09
run propagate       propagate.ini      propagate
run husimi-frames   husimi.ini         husimi
run trace-check     trace.ini          trace

echo "all outputs under $out/"
