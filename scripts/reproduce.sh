#!/usr/bin/env bash
# Run every experiment config into out/<command>/ with all output
# formats, from the source tree: no install needed.  Prints each
# command's wall time, the chain's total and the size of its outputs.
# On a 2-core x86-64 VM shared with other work the chain took 6.4-7.3 s
# (three runs) and wrote 4.1 MB: 0.28-0.44 s for each command that does
# little more than start up (interpreter and imports; scipy is imported
# only by the commands that call it), 0.55-0.73 s for spectrum,
# 1.0-1.4 s for each weyl fit, 0.58-0.63 s for propagate, 0.57-0.71 s
# for husimi-frames and 0.88-1.02 s for trace-check.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-out}"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

since() {
    awk -v a="$1" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.2f s", b - a }'
}

run() {
    local name="$1" config="$2" dir="$3" start="$EPOCHREALTIME"
    echo "== $name ($config)"
    python3 -m openmaps "$name" --config "scripts/configs/$config" \
        --out "$out/$dir" --format all
    echo "   $name ($config): $(since "$start")"
}

chain="$EPOCHREALTIME"
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

echo "chain: $(since "$chain")"
echo "all outputs under $out/: $(du -sh "$out" | cut -f1)"
