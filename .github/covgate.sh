#!/usr/bin/env bash
# Real-traffic coverage gate. Folds the counters that -cover builds of the
# CLIs and examples left in GOCOVERDIR and checks the functions nothing
# entered against the committed allowlist. Run it from the module root:
#
#   bash .github/covgate.sh [covdir] [allowlist]
#
# Each allowlist line is "<file>\t<function>\t<reason>"; '#' starts a
# comment. A reason opens with its category and a colon: "failure-only",
# "interface obligation", "benchmark only" or "test seam". The file is the
# module path ("repro/internal/sim/sim.go"); the function is named from its
# declaration, a method after its receiver's type with any type parameters
# dropped ("fatalf", "*Sim.Run", "Violation.At", "*Queue.Put"). `go tool
# covdata func` does not do: it names a generic type's methods without their
# receiver and lists only one of two that share a name, so the gate reads
# `go tool cover -func`'s complete list and names each function from its
# source line. The gate fails on a never-entered function the list does not
# name, on a listed function that traffic now enters, on a listed function
# that no longer exists, on two declarations in one file that reach the same
# name, on a reason outside the four categories, and on a test seam whose
# reason does not cite the item that retires it ("ROADMAP item N"), so that
# category only shrinks. Its summary counts the list by category.
set -euo pipefail
dir=${1:-${GOCOVERDIR:?set GOCOVERDIR or pass the counter directory}}
allow=${2:-"$(dirname "$0")/covgate-allow.txt"}

prof=$(mktemp)
funcs=$(mktemp)
trap 'rm -f "$prof" "$funcs"' EXIT
go tool covdata textfmt -i="$dir" -o="$prof"
# "repro/x/y.go:12:  Name  0.0%" -> "repro/x/y.go<TAB>12<TAB>0.0%"
go tool cover -func="$prof" |
	awk '$1 ~ /\.go:[0-9]+:$/ { split($1, f, ":"); print f[1] "\t" f[2] "\t" $NF }' >"$funcs"

awk -F'\t' -v allow="$allow" -v mod="$(go list -m)" '
	# declared names the function declared on a source line: "Name", or
	# "Recv.Name" with the receiver type as written, minus type parameters.
	function declared(src,   recv, f, n) {
		sub(/^func[ \t]+/, "", src)
		if (src ~ /^\(/) {
			match(src, /^\([^)]*\)/)
			recv = substr(src, 2, RLENGTH - 2)
			src = substr(src, RLENGTH + 1)
			sub(/^[ \t]+/, "", src)
			gsub(/\[[^]]*\]/, "", recv)
			n = split(recv, f, " ")
		}
		match(src, /^[A-Za-z0-9_]+/)
		return (n ? f[n] "." : "") substr(src, 1, RLENGTH)
	}
	function show(key) { sub(/\t/, " ", key); return key }
	BEGIN {
		ncat = split("failure-only|interface obligation|benchmark only|test seam", cat, "|")
		while ((getline line < allow) > 0) {
			if (line ~ /^[ \t]*(#|$)/) continue
			n = split(line, f, "\t")
			if (n < 3 || f[3] == "") { printf "%s: no reason given: %s\n", allow, line; bad = 1; continue }
			for (c = ncat; c > 0 && index(f[3], cat[c] ":") != 1; c--) {}
			if (!c) { printf "%s: reason outside the four categories: %s\n", allow, line; bad = 1; continue }
			if (cat[c] == "test seam" && f[3] !~ /ROADMAP item [0-9]+/) { printf "%s: a test seam names no ROADMAP item that retires it: %s\n", allow, line; bad = 1 }
			percat[c]++
			listed[f[1] "\t" f[2]] = 1
		}
	}
	$1 != file {
		file = $1
		path = substr(file, length(mod) + 2)
		split("", src)
		n = 0
		while ((getline line < path) > 0) src[++n] = line
		close(path)
	}
	{
		if (src[$2] !~ /^func[ \t]/) { printf "no function declared at %s:%s\n", $1, $2; bad = 1; next }
		key = $1 "\t" declared(src[$2])
		total++
		if (key in at) { printf "two declarations reach one allowlist key: %s (lines %s and %s)\n", show(key), at[key], $2; bad = 1 }
		at[key] = $2
		if ($3 != "0.0%") { entered[key] = 1; next }
		never++
		if (!(key in listed)) { printf "never entered and not allowlisted: %s\n", show(key); bad = 1 }
	}
	END {
		for (key in listed) {
			if (!(key in at)) { printf "allowlisted but gone: %s\n", show(key); bad = 1 }
			else if (key in entered) { printf "allowlisted but entered by traffic, drop it from the list: %s\n", show(key); bad = 1 }
		}
		printf "real-traffic coverage: %d of %d functions never entered (", never, total
		for (c = 1; c <= ncat; c++) printf "%s%s %d", (c > 1 ? ", " : ""), cat[c], percat[c]
		print ")"
		exit bad
	}' "$funcs"
