#!/usr/bin/env bash
# Orphan-package check: every package under ./internal/... must be
# imported, directly or not, by the root package, a command or an example.
# A package that nothing reaches is code nothing runs; delete it or give
# it a caller. Run from the repository root; CI runs it on every push.
set -euo pipefail

orphans=$(comm -23 <(go list ./internal/... | sort) \
	<(go list -deps . ./cmd/... ./examples/... | sort))
if [ -n "$orphans" ]; then
	echo "orphans: packages under ./internal/... that nothing reaches:" >&2
	echo "$orphans" >&2
	exit 1
fi
echo "orphans: every internal package is reached"
