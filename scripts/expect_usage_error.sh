#!/usr/bin/env bash
# Run a program that must reject its arguments: pass when it exits with
# status 2 and says why on stderr, fail on any other outcome (a run that
# goes ahead, a crash, or a silent exit).
#
# Usage: scripts/expect_usage_error.sh PROGRAM [ARGS...]
err=$("$@" 2>&1 >/dev/null)
status=$?
if [ "$status" -ne 2 ] || [ -z "$err" ]; then
    echo "expected exit status 2 with a message; got $status: $err" >&2
    exit 1
fi
echo "rejected as expected: $err"
