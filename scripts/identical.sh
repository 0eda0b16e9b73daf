#!/usr/bin/env bash
# identical.sh BASE — is this tree's behaviour byte-identical to revision
# BASE's? Builds both CLIs and both benchmarks, diffs the stdout of the
# figure, scale, churn, soak and fault experiments at smoke sizes with the
# wall-clock fields masked, then compares the four workloads' sim_digest.
# BASE is exported with `git archive` into a temporary directory (under
# $TMPDIR), so nothing is left behind in the repository and no network is
# needed. Exit status 1 on any difference.
set -euo pipefail

base=${1:?usage: identical.sh BASE}
go=${GO:-go}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
for side in base head; do
	src=$root
	[ "$side" = base ] && src=$tmp/base
	(cd "$src" && "$go" build -o "$tmp/p4u.$side" ./cmd/p4update && "$go" build -o "$tmp/bench.$side" ./benchmark)
done

mask() { sed -e 's/(wall-clock [^)]*)/(wall-clock)/' -e 's/ flows\/s(wall)=[0-9]*//'; }

fail=0
compare() { # compare NAME: diff NAME.base against NAME.head
	if diff -u "$tmp/$1.base" "$tmp/$1.head"; then
		echo "identical  $1"
	else
		echo "DIFFERS    $1"
		fail=1
	fi
}

experiment() { # experiment NAME ARGS...: one CLI run a side, masked
	local name=$1 side
	shift
	for side in base head; do
		"$tmp/p4u.$side" "$@" -seed 1 -workers 2 2>&1 | mask >"$tmp/$name.$side" ||
			echo "exit status $? on the $side side" >>"$tmp/$name.$side"
	done
	compare "$name"
}

experiment fig2 -exp fig2
experiment fig4 -exp fig4
experiment fig7 -exp fig7 -runs 5
experiment fig7six -exp fig7six -runs 2
experiment scale -exp scale -runs 1
experiment churn -exp churn -topo fattree4 -arrival-rate 2000 -live-flows 1000 -churn-duration 2s -reroute-every 25ms
experiment soak -exp soak -topo b4 -soak-rate 150 -soak-duration 4s
experiment faults -exp faults -runs 1 -loss 0,0.1 -reorder 0.1

for w in burst-k8 churn-k16 paper-grid soak-b4-squall; do
	for side in base head; do
		"$tmp/bench.$side" -workload "$w" -seconds 6 -out "$tmp/out.$side" |
			grep '^sim_digest:' >"$tmp/digest-$w.$side" ||
			echo "no sim_digest from the $side side" >>"$tmp/digest-$w.$side"
	done
	compare "digest-$w"
	cat "$tmp/digest-$w.head"
done

if [ "$fail" -ne 0 ]; then
	echo "identical: outputs differ from $base" >&2
	exit 1
fi
echo "identical: no difference against $base"
