#!/bin/sh
# ab: interleaved A/B comparison of two revisions on the repository
# benchmark (benchmark/README.md, "Stating a claim").
#
#   scripts/ab.sh [-n PAIRS] [-w WORKLOAD] [-s SEED] [-t SECONDS] [-T TRACE]
#                 [-d DIR] BASE [CHANGE]
#
# BASE and CHANGE are git revisions. CHANGE defaults to the working tree
# as it stands, uncommitted edits and untracked files included (ignored
# files excluded). Each side is extracted into its own directory under
# DIR (default: a new temporary directory, kept so the runs can be
# re-read), so both sides build from their own sources and their own
# benchmark/ code. Re-using a DIR re-extracts both trees but keeps their
# build caches. Each pair runs `sh benchmark/run.sh --workload
# WORKLOAD --seed SEED --seconds SECONDS --trace TRACE` once on each
# side, alternating which side runs first. The result line of every run
# is kept in DIR/runs/.
#
# The summary has one row per metric of the result line: each side's
# median with [first, third] quartiles (Python statistics.quantiles(n=4)),
# the change in the median, whether that change exceeds the base's own
# quartile distance, and the pairs the change won. A metric's better
# direction is read from BENCHMARK.json. Defaults: 10 pairs, micro,
# seed 1, 30 s, trace 0.
set -eu

pairs=10 workload=micro seed=1 seconds=30 trace=0 dir=
while getopts n:w:s:t:T:d: opt; do
	case $opt in
	n) pairs=$OPTARG ;;
	w) workload=$OPTARG ;;
	s) seed=$OPTARG ;;
	t) seconds=$OPTARG ;;
	T) trace=$OPTARG ;;
	d) dir=$OPTARG ;;
	*) sed -n '4,5p' "$0" >&2; exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	sed -n '4,5p' "$0" >&2
	exit 2
fi
base=$1 change=${2:-}

repo=$(git -C "$(dirname "$0")/.." rev-parse --show-toplevel)
[ -n "$dir" ] || dir=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
mkdir -p "$dir/runs"

# extract REV DEST: the revision's tree, or the working tree for "",
# keeping DEST's build cache.
extract() {
	keep="$dir/.bench_build.keep"
	rm -rf "$keep"
	if [ -d "$2/.bench_build" ]; then mv "$2/.bench_build" "$keep"; fi
	rm -rf "$2"
	mkdir -p "$2"
	if [ -z "$1" ]; then
		# ls-files -c also lists tracked files deleted from the working
		# tree (ls-files -d); keep only paths that are still there.
		git -C "$repo" ls-files -co --exclude-standard -z |
			(cd "$repo" && xargs -0 sh -c 'for f; do
				if [ -e "$f" ] || [ -h "$f" ]; then printf "%s\0" "$f"; fi
			done' sh) |
			(cd "$repo" && xargs -0 tar -cf -) | tar -xf - -C "$2"
	else
		git -C "$repo" archive "$1" | tar -xf - -C "$2"
	fi
	if [ -d "$keep" ]; then mv "$keep" "$2/.bench_build"; fi
}
tag=$workload-$seed-$seconds-$trace
extract "$base" "$dir/base"
extract "$change" "$dir/change"
echo "ab: base ${base} and change ${change:-working tree} in $dir" >&2

# run SIDE PAIR: one benchmark run, keeping its result line.
run() {
	out="$dir/runs/$tag-$1-$2.json"
	(cd "$dir/$1" && sh benchmark/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace "$trace") | tail -n 1 >"$out" || true
	echo "ab: pair $2 $1: $(cat "$out")" >&2
}
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$i"
		run change "$i"
	else
		run change "$i"
		run base "$i"
	fi
	i=$((i + 1))
done

# Summary. Each result line is one JSON object whose metrics map holds
# {"value":V,"unit":U} per name; BENCHMARK.json gives each name's better
# direction as a "name" line followed by a "better" line.
{
	cat "$dir/change/BENCHMARK.json"
	i=1
	while [ "$i" -le "$pairs" ]; do
		printf 'RUN base %s ' "$i"
		cat "$dir/runs/$tag-base-$i.json"
		printf 'RUN change %s ' "$i"
		cat "$dir/runs/$tag-change-$i.json"
		i=$((i + 1))
	done
} | awk -v pairs="$pairs" -v workload="$workload" -v seed="$seed" '
function sortn(a, n,    i, j, x) {
	for (i = 2; i <= n; i++) {
		x = a[i]
		for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
		a[j + 1] = x
	}
}
# quart(a, n, q): quartile q (1..3) as statistics.quantiles(n=4) gives it.
function quart(a, n, q,    m, j, d) {
	if (n == 1) return a[1]
	m = n + 1
	j = int(q * m / 4)
	if (j < 1) j = 1
	if (j > n - 1) j = n - 1
	d = q * m - j * 4
	return (a[j] * (4 - d) + a[j + 1] * d) / 4
}
function median(a, n) {
	return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}
function fmt(x) { return (x >= 100 || x <= -100) ? sprintf("%.0f", x) : sprintf("%.3g", x) }
/^RUN / {
	side = $2; pair = $3
	line = $0
	if (match(line, /"failed":[0-9]+/)) failed[side] += substr(line, RSTART + 9, RLENGTH - 9)
	else failed[side] = "?"
	while (match(line, /"[a-z0-9_.]+":\{"value":[-+0-9.eE]+,"unit":"[^"]*"/)) {
		s = substr(line, RSTART, RLENGTH)
		line = substr(line, RSTART + RLENGTH)
		split(s, f, "\"")
		name = f[2]; unit = f[8]
		v = s; sub(/.*"value":/, "", v); sub(/,.*/, "", v)
		if (!(name in seen)) { seen[name] = 1; order[++nm] = name }
		units[name] = unit
		val[name, side, pair] = v + 0
		cnt[name, side]++
	}
	next
}
/"name":/ { n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n); last = n; next }
/"better":/ { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); better[last] = b; next }
END {
	printf "failed: base %s, change %s\n\n", failed["base"], failed["change"]
	print "| workload (pairs, seed) | metric | base | change | Δ median | gap > base IQR | change wins |"
	print "|---|---|---|---|---|---|---|"
	for (k = 1; k <= nm; k++) {
		name = order[k]
		if (cnt[name, "base"] != pairs || cnt[name, "change"] != pairs) {
			printf "| `%s` (%d, %s) | `%s` | missing runs | | | | |\n", workload, pairs, seed, name
			continue
		}
		wins = 0
		for (i = 1; i <= pairs; i++) {
			bv = val[name, "base", i]; cv = val[name, "change", i]
			a[i] = bv; c[i] = cv
			if (better[name] == "higher" ? cv > bv : cv < bv) wins++
		}
		sortn(a, pairs); sortn(c, pairs)
		bm = median(a, pairs); cm = median(c, pairs)
		iqr = quart(a, pairs, 3) - quart(a, pairs, 1)
		gap = cm - bm
		delta = bm != 0 ? sprintf("%+.1f %%", 100 * gap / bm) : "—"
		u = units[name] == "s" ? " s" : ""
		printf "| `%s` (%d, %s) | `%s` | %s%s [%s, %s] | %s%s [%s, %s] | %s | %s | %d/%d |\n",
			workload, pairs, seed, name,
			fmt(bm), u, fmt(quart(a, pairs, 1)), fmt(quart(a, pairs, 3)),
			fmt(cm), u, fmt(quart(c, pairs, 1)), fmt(quart(c, pairs, 3)),
			delta, ((gap < 0 ? -gap : gap) > iqr ? "yes" : "no"), wins, pairs
	}
}'
