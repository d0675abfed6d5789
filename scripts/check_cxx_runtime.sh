#!/usr/bin/env bash
# C++ runtime gate (registered with ctest): the test binary must load
# the same libstdc++ as a shipped binary linked to the same library.
# A test binary that resolves a different runtime (say, a newer one
# through the RUNPATH of a GTest found in another toolchain prefix)
# can pass on behaviour that differs in the programs users run.
set -u

tests_bin="${1:?usage: check_cxx_runtime.sh <test binary> <program>}"
program="${2:?usage: check_cxx_runtime.sh <test binary> <program>}"

# The resolved path of libstdc++ in a binary's ldd listing.
runtime_of() {
    ldd "$1" | awk '$1 ~ /^libstdc\+\+/ { print $3 }'
}

tests_rt=$(runtime_of "$tests_bin")
program_rt=$(runtime_of "$program")

if [ -z "$tests_rt" ] || [ -z "$program_rt" ]; then
    echo "cannot resolve libstdc++ for both binaries:"
    echo "  $tests_bin -> '${tests_rt}'"
    echo "  $program -> '${program_rt}'"
    exit 1
fi
if [ "$(readlink -f "$tests_rt")" != "$(readlink -f "$program_rt")" ]; then
    echo "the tests load a different C++ runtime than the programs:"
    echo "  $tests_bin -> $tests_rt"
    echo "  $program -> $program_rt"
    exit 1
fi
echo "C++ runtime OK: $tests_rt"
