#!/bin/sh
# mutants: the seeded-fault kill matrix. Each scripts/mutants/*.patch
# seeds one small fault into the engines or their access sets; a fault
# is killed when an oracle fails on the patched tree.
#
#   scripts/mutants.sh [-quick] [-t SECONDS] [-d DIR] [PATCH...]
#
# The working tree as it stands (uncommitted edits and untracked files
# included, ignored files excluded) is copied once into DIR (default: a
# new temporary directory), and each patch is `git apply`d to a fresh
# copy of it in DIR/tree, so every mutant builds at the same path and
# shares the build cache. PATCH defaults to every checked-in patch.
#
# Full mode first runs the unpatched tree, then each patch, under three
# oracles, each test binary and sitm-check limited to SECONDS (default
# 300; a run that hits the limit counts as a kill, marked "timeout"):
#   test   go test -count=1 ./...
#   mc     go run ./cmd/sitm-check -max-schedules 20000
#   bench  cd benchmark && go test -count=1 ./...
# and prints the fault x oracle matrix with the failing tests of each
# row. Logs are kept in DIR/logs/.
#
# -quick runs, for each patch, only the killing tests recorded for it in
# scripts/mutants.txt ("<patch name> <package> <test>..." per line),
# after checking that they pass on the unpatched tree. It exits 1 if
# any fault survives. Both modes exit 2 if a patch does not apply, has
# no entry, or leaves a tree that does not compile or vet: such a run
# kills nothing, so it must not count as a kill.
set -eu

quick=0 limit=300 dir=
while [ $# -gt 0 ]; do
	case $1 in
	-quick) quick=1 ;;
	-t) limit=$2; shift ;;
	-d) dir=$2; shift ;;
	-*) sed -n '5p' "$0" >&2; exit 2 ;;
	*) break ;;
	esac
	shift
done

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
if [ $# -eq 0 ]; then
	set -- "$repo"/scripts/mutants/*.patch
fi
table=$repo/scripts/mutants.txt
[ -n "$dir" ] || dir=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
mkdir -p "$dir/logs"
echo "mutants: working tree copied to $dir" >&2

# The unpatched working tree, as a git repository so that git apply
# resolves the patch paths against its root.
rm -rf "$dir/clean" "$dir/tree"
mkdir -p "$dir/clean"
git -C "$repo" ls-files -co --exclude-standard -z |
	(cd "$repo" && xargs -0 sh -c 'for f; do
		if [ -e "$f" ] || [ -h "$f" ]; then printf "%s\0" "$f"; fi
	done' sh) |
	(cd "$repo" && xargs -0 tar -cf -) | tar -xf - -C "$dir/clean"
git -C "$dir/clean" init -q

# mutate PATCH: a fresh copy of the clean tree in DIR/tree, with PATCH
# applied when it is not "none".
mutate() {
	rm -rf "$dir/tree"
	cp -R "$dir/clean" "$dir/tree"
	if [ "$1" != none ] && ! git -C "$dir/tree" apply "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; then
		echo "mutants: $1 does not apply" >&2
		exit 2
	fi
}

# failures LOG: the failing tests of a go test log, one
# "<package>:<test>" per line, and "<package>:timeout" for a test binary
# that hit its limit.
failures() {
	awk '
		/^--- FAIL: / { tests[n++] = $3 }
		/^panic: test timed out/ { timedout = 1 }
		/^(FAIL|ok)[ \t]+[^ \t]+/ && $2 != "" {
			if ($1 == "FAIL") {
				for (i = 0; i < n; i++) print $2 ":" tests[i]
				if (timedout) print $2 ":timeout"
			}
			n = 0; timedout = 0
		}
	' "$1"
}

# oracle LOG CMD...: runs CMD in DIR/tree and prints the matrix cell:
# "-" when it passes, "nobuild" when a package failed to compile or vet
# (no test ran, so nothing was killed), "timeout" when it or a test
# binary hit the limit, else "killed". The outer limit only backs up go
# test's own -timeout.
oracle() {
	log=$1
	shift
	status=0
	(cd "$dir/tree" && timeout -k 10 "$((4 * limit))" "$@") >"$log" 2>&1 || status=$?
	if [ $status -eq 0 ]; then
		echo -
	elif grep -Eq '\[(build|setup) failed\]$|^# repro|^vet: ' "$log"; then
		echo nobuild
	elif [ $status -eq 124 ] || grep -q '^panic: test timed out' "$log"; then
		echo timeout
	else
		echo killed
	fi
}

if [ $quick -eq 1 ]; then
	# Every recorded test must pass unpatched, or its kills prove nothing.
	for p in "$@"; do
		name=$(basename "$p" .patch)
		if ! grep -q "^$name " "$table"; then
			echo "mutants: no killing tests recorded for $name in $table" >&2
			exit 2
		fi
	done
	mutate none
	survived=0
	runs() {
		grep -v '^#' "$table" | while read -r name pkg tests; do
			[ -n "$name" ] || continue
			for p in "$@"; do
				if [ "$(basename "$p" .patch)" = "$name" ]; then
					echo "$name $pkg ^($(echo "$tests" | tr ' ' '|'))\$"
				fi
			done
		done
	}
	runs "$@" | while read -r name pkg re; do
		cell=$(oracle "$dir/logs/none-$name.quick" go test -count=1 -timeout "${limit}s" -run "$re" "$pkg")
		if [ "$cell" != - ]; then
			echo "mutants: $pkg -run '$re' fails unpatched (see $dir/logs/none-$name.quick)" >&2
			exit 1
		fi
	done
	printf '%-40s %s\n' fault quick
	for p in "$@"; do
		name=$(basename "$p" .patch)
		mutate "$p"
		cell=-
		for entry in $(runs "$p" | tr ' ' '#'); do
			pkg=$(echo "$entry" | cut -d'#' -f2) re=$(echo "$entry" | cut -d'#' -f3)
			c=$(oracle "$dir/logs/$name.quick" go test -count=1 -timeout "${limit}s" -run "$re" "$pkg")
			if [ "$c" = nobuild ]; then
				echo "mutants: $name does not build (see $dir/logs/$name.quick)" >&2
				exit 2
			fi
			if [ "$c" != - ]; then cell=$c; fi
		done
		printf '%-40s %s\n' "$name" "$cell"
		if [ "$cell" = - ]; then survived=$((survived + 1)); fi
	done
	if [ $survived -ne 0 ]; then
		echo "mutants: $survived fault(s) survived" >&2
		exit 1
	fi
	exit 0
fi

printf '%-40s %-8s %-8s %-8s %s\n' fault test mc bench "failing tests"
for p in none "$@"; do
	name=$(basename "$p" .patch)
	mutate "$p"
	t=$(oracle "$dir/logs/$name.test" go test -count=1 -timeout "${limit}s" ./...)
	m=$(oracle "$dir/logs/$name.mc" timeout "$limit" go run ./cmd/sitm-check -max-schedules 20000)
	b=$(oracle "$dir/logs/$name.bench" sh -c "cd benchmark && go test -count=1 -timeout ${limit}s ./...")
	killers=$( (failures "$dir/logs/$name.test"; failures "$dir/logs/$name.bench") | tr '\n' ' ')
	printf '%-40s %-8s %-8s %-8s %s\n' "$name" "$t" "$m" "$b" "$killers"
	case "$t $m $b" in
	*nobuild*)
		echo "mutants: $name does not build (see $dir/logs/$name.*)" >&2
		exit 2
		;;
	esac
done
