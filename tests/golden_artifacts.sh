#!/bin/sh
# Writes the artifacts whose SHA-256 digests tests/golden_artifacts.sha256
# pins, under the directory given as the only argument:
#
#   sh tests/golden_artifacts.sh "$d"
#   (cd "$d" && sha256sum -c -) < tests/golden_artifacts.sha256
#
# Runs the installed `nanodr` entry point; NANODR overrides the command.
# Each command's standard output is kept beside its artifacts as <name>.txt.
# The runs' arithmetic is IEEE alone (every square is a product, not a
# call to the C library's pow), but the generated scenarios depend on
# NumPy's seeded streams and sin and on the C library's exp and pow, so the
# digests hold on the CI platform; a change that must leave every artifact
# as it was keeps them all.  tests/test_cli.py pins the artifacts of the
# committed docs/example_scenario.csv and docs/example_scenario_n20.csv in
# the test suite itself.
set -eu
out=$1
nanodr=${NANODR:-nanodr}
mkdir -p "$out"
cd "$out"

# The benchmark's three workload files at seed 1.
$nanodr gen-scenario --seed 1 --slots 720 --followers 5 --out month5.csv > gen-month5.txt
$nanodr gen-scenario --seed 1 --slots 100 --followers 50 --out cluster50.csv > gen-cluster50.txt
$nanodr gen-scenario --seed 1 --slots 240 --followers 5 --out compare5.csv > gen-compare5.txt

$nanodr run --scenario month5.csv --traces --out month5 > month5.txt
$nanodr run --scenario cluster50.csv --traces --out cluster50 > cluster50.txt
$nanodr compare --scenario compare5.csv --cases 1,2,3,4,5 --out compare5 > compare5.txt
# The reference week's defaults.
$nanodr run --traces --out desk > desk.txt
$nanodr run --no-polish --slots 24 --followers 50 --traces --out nopolish50 > nopolish50.txt
