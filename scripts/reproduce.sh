#!/usr/bin/env bash
# Run every experiment config into out/<command>/ with all output
# formats, from the source tree: no install needed.  Prints each
# command's wall time, the chain's total and the size of its outputs.
# On a 2-core x86-64 VM shared with other work the chain took 8.2-8.4 s
# (three runs) and wrote 5.2 MB: 0.29-0.43 s for each command that does
# little more than start up (interpreter and imports; scipy is imported
# only by the commands that call it), 0.68-1.02 s for spectrum,
# 1.4-1.7 s for each weyl fit, 0.67-0.77 s for propagate, 0.83-1.02 s
# for husimi-frames and 0.92-1.32 s for trace-check.
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
