#!/bin/sh
# inline-pin.sh checks that the calls listed in scripts/inline-pin.txt
# still inline into the engines' transactional access methods (2PL's and
# SONTM's Read and Write, SI-TM's read and Write) when built with the
# checked-in profile (cmd/sitm-bench/default.pgo).
# A stale profile or a refactor that pushes a hot helper over the inlining
# budget shows up here as a missing line, before it shows up as a slower
# benchmark.
#
#   scripts/inline-pin.sh          check against scripts/inline-pin.txt
#   scripts/inline-pin.sh -print   print the current decisions instead
#
# Each line of the list is "<file> <method> <callee>", the callee spelled
# as `go build -gcflags=-m` prints it.
set -eu
cd "$(dirname "$0")/.."

out=$(mktemp)
trap 'rm -f "$out" "$out.now"' EXIT
# -a rebuilds the packages, so the compiler prints its decisions even
# when the build cache holds them.
go build -a -pgo=cmd/sitm-bench/default.pgo -gcflags=-m \
	./internal/twopl ./internal/sontm ./internal/core ./internal/eager 2>"$out" || {
	cat "$out" >&2
	exit 1
}

# decisions prints "<file> <method> <callee>" for every call inlined into
# a pinned method of the transaction type (each file's list after the
# colon), attributing each -m line to the method whose source lines
# contain it.
decisions() {
	for spec in internal/twopl/twopl.go:Read,Write internal/sontm/sontm.go:Read,Write \
		internal/core/sitm.go:read,Write; do
		f=${spec%%:*}
		awk -v f="$f" -v methods="${spec#*:}" '
			BEGIN {
				n = split(methods, ms, ",")
				for (i = 1; i <= n; i++) {
					pinned[ms[i]] = 1
				}
			}
			FNR == NR {
				if (match($0, /^func \(x \*txn\) [A-Za-z]+\(/)) {
					name = $0
					sub(/^func \(x \*txn\) /, "", name)
					sub(/\(.*/, "", name)
					start = (name in pinned) ? FNR : 0
				} else if (start && $0 == "}") {
					first[name] = start
					last[name] = FNR
					start = 0
				}
				next
			}
			index($0, f ":") == 1 && /: inlining call to / {
				split($0, pos, ":")
				callee = $0
				sub(/.*: inlining call to /, "", callee)
				for (m in first) {
					if (pos[2] + 0 >= first[m] && pos[2] + 0 <= last[m]) {
						print f, m, callee
					}
				}
			}
		' "$f" "$out"
	done | sort -u
}

if [ "${1:-}" = "-print" ]; then
	decisions
	exit 0
fi

decisions >"$out.now"
missing=$(grep -v '^#' scripts/inline-pin.txt | grep -v '^$' | sort -u | comm -23 - "$out.now")
if [ -n "$missing" ]; then
	echo "inline-pin: these calls no longer inline into the engines' access methods" >&2
	echo "(regenerate the profile with scripts/pgo.sh, or fix the helper):" >&2
	echo "$missing" >&2
	exit 1
fi
echo "inline-pin: all $(grep -cv '^#\|^$' scripts/inline-pin.txt) pinned inlining decisions hold"
