#!/usr/bin/env bash
# `openmaps chain` (cli_io.CHAIN, all formats) from the source tree into DIR/, the
# first argument or out.  One interpreter: 1.35-2.04 s process wall time on a 2-core
# x86-64 VM shared with other work (three runs, the first cold); 4.1 MB.
set -euo pipefail

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python3 -m openmaps chain --out "${1:-out}"
echo "all outputs under ${1:-out}/: $(du -sh "${1:-out}" | cut -f1)"
