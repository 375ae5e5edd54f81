#!/usr/bin/env bash
# Real-traffic coverage gate. Folds the counters that -cover builds of the
# CLIs and examples left in GOCOVERDIR and checks the functions nothing
# entered against the committed allowlist:
#
#   bash .github/covgate.sh [covdir] [allowlist]
#
# Each allowlist line is "<file>\t<function>\t<reason>", as
# `go tool covdata func` names them ("repro/internal/sim/sim.go",
# "*Sim.Run"); '#' starts a comment. The gate fails on a never-entered
# function the list does not name, on a listed function that traffic now
# enters, and on a listed function that no longer exists.
set -euo pipefail
dir=${1:-${GOCOVERDIR:?set GOCOVERDIR or pass the counter directory}}
allow=${2:-"$(dirname "$0")/covgate-allow.txt"}

funcs=$(mktemp)
trap 'rm -f "$funcs"' EXIT
# "repro/x/y.go:12:  Name  0.0%" -> "repro/x/y.go<TAB>Name<TAB>0.0%"
go tool covdata func -i="$dir" |
	awk '$1 ~ /\.go:[0-9]+:$/ { sub(/:[0-9]+:$/, "", $1); print $1 "\t" $2 "\t" $3 }' >"$funcs"

awk -F'\t' -v allow="$allow" '
	BEGIN {
		while ((getline line < allow) > 0) {
			if (line ~ /^[ \t]*(#|$)/) continue
			n = split(line, f, "\t")
			if (n < 3 || f[3] == "") { printf "%s: no reason given: %s\n", allow, line; bad = 1; continue }
			listed[f[1] "\t" f[2]] = 1
		}
	}
	{
		key = $1 "\t" $2
		total++
		seen[key] = 1
		if ($3 != "0.0%") { entered[key] = 1; next }
		never++
		if (!(key in listed)) { printf "never entered and not allowlisted: %s %s\n", $1, $2; bad = 1 }
	}
	END {
		for (key in listed) {
			split(key, f, "\t")
			if (!(key in seen)) { printf "allowlisted but gone: %s %s\n", f[1], f[2]; bad = 1 }
			else if (key in entered) { printf "allowlisted but entered by traffic, drop it from the list: %s %s\n", f[1], f[2]; bad = 1 }
		}
		printf "real-traffic coverage: %d of %d functions never entered\n", never, total
		exit bad
	}' "$funcs"
