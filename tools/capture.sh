#!/usr/bin/env bash
# Usage: tools/capture.sh OUT [TREE]
#
# Records what bivocd and bivocfed answer to one fixed list of requests
# in every configuration of the capture set, one file per response under
# OUT/<configuration>/. Both daemons are built from TREE, a checkout of
# this repository (default: the one this script is in), so a capture of
# another revision needs only its checkout.
#
#   mono-9seg     bivocd over nine segments (-max-segments -1)
#   mono-compact  bivocd whose compactor has bounded its segments
#   eager-first   bivocd -data-dir, first boot
#   eager-warm    the same directory and flags again: a warm restart that
#                 serves the segments it read and materialized
#   mmap-first    bivocd -data-dir -mmap, first boot
#   mmap-warm     the same again under -mmap: the recovered segments are
#                 served from their mappings
#   fed-healthy   bivocfed over two bivocd shards
#   fed-repeat    the same requests again, which the shards answer from
#                 their snapshot caches
#   fed-degraded  shard 1 stopped
#
# Every request is sent plainly and with Accept-Encoding: gzip. A file
# holds the request, the status, the X-Bivoc-Generation, Content-Type and
# Content-Encoding headers, the SHA-256 of a gzip body's compressed
# bytes, and the body (decompressed). Listen ports are masked, and a body
# that held one gets no digest, since its compressed bytes hold the port;
# Date is not recorded. The daemons must exit 0 on SIGINT.
#
# The last request is /statsz, whose body also holds values that differ
# between two runs of one tree; they are replaced by "masked" and the
# body is pretty-printed by jq (so it gets no digest either):
#   memory.heap_alloc_bytes, memory.heap_inuse_bytes, memory.num_gc
#   serving.endpoints.*.latency_buckets_us, and the /statsz endpoint's
#     requests (settle below polls it) — in bivocfed's serving and
#     shard_serving sections too
#   pipeline[].avg_latency_ns, pipeline[].max_latency_ns
#   store.open_us, store.last_seal_unix_ms
#   store.segment_path's directory (DATA/)
# bivocfed's /statsz embeds each shard's, masked the same way.
#
# Byte identity between two revisions is diff -r of their captures:
#   git archive <rev> | tar -x -C /tmp/parent
#   tools/capture.sh /tmp/cap-parent /tmp/parent
#   tools/capture.sh /tmp/cap-change
#   diff -r /tmp/cap-parent /tmp/cap-change
#
# Needs bash, curl, jq, gzip and sha256sum; about a minute.
set -euo pipefail

out=${1:?usage: tools/capture.sh OUT [TREE]}
tree=$(cd "${2:-$(dirname "$0")/..}" && pwd)
mkdir -p "$out"
out=$(cd "$out" && pwd)
work=$(mktemp -d)
declare -A pid=()

cleanup() {
	for name in "${!pid[@]}"; do kill -INT "${pid[$name]}" 2>/dev/null || true; done
	wait || true
	rm -rf "$work"
}
trap cleanup EXIT

(cd "$tree" && go build -o "$work/bivocd" ./cmd/bivocd && go build -o "$work/bivocfed" ./cmd/bivocfed)

# 180 documents published 20 at a time: nine segments.
world=(-calls 90 -days 2 -swap-interval 0 -swap-every 20)

# start NAME BINARY FLAG... starts a daemon on a free port and sets addr.
start() {
	local name=$1 bin=$2
	shift 2
	"$work/$bin" -addr 127.0.0.1:0 "$@" >"$work/$name.log" 2>&1 &
	pid[$name]=$!
	for _ in $(seq 200); do
		addr=$(grep -o -m1 'listening on [^ ]*' "$work/$name.log" | cut -d' ' -f3 || true)
		if [ -n "$addr" ]; then return; fi
		sleep 0.05
	done
	echo "capture: $name did not start" >&2
	cat "$work/$name.log" >&2
	exit 1
}

# stop NAME interrupts a daemon and requires it to exit 0.
stop() {
	kill -INT "${pid[$1]}"
	if ! wait "${pid[$1]}"; then
		echo "capture: $1 did not exit cleanly" >&2
		cat "$work/$1.log" >&2
		exit 1
	fi
	unset "pid[$1]"
}

# settle ADDR waits until the daemon's snapshot is sealed and its
# compactor, if it has one, has brought the segments within its bound.
settle() {
	for _ in $(seq 600); do
		if curl -s "http://$1/statsz" | jq -e '.sealed and (.segments.max_segments <= 0 or .segments.count <= .segments.max_segments)' >/dev/null; then
			return
		fi
		sleep 0.05
	done
	echo "capture: the daemon at $1 did not settle" >&2
	exit 1
}

# The requests: a path, then its parameters (name=value, sent
# URL-encoded), separated by |. /v1/batch is POSTed the batch below.
requests() {
	cat <<'EOF'
/healthz
/v1/count|dim=outcome=reservation|dim=weak start[customer intention]|dim=customer intention|dim=suv[vehicle type] ∧ outcome=unbooked
/v1/count|dim=missing=field
/v1/associate|row=strong start[customer intention]|row=weak start[customer intention]|col=outcome=reservation|col=outcome=unbooked|col=outcome=service
/v1/associate|row=suv[vehicle type]|row=compact[vehicle type]|row=luxury car[vehicle type]|col=outcome=reservation|col=outcome=unbooked|confidence=0.99
/v1/associate|row=value selling|row=discount|col=weak start[customer intention] ∧ outcome=reservation|col=agent=A00|col=missing-field=x|confidence=0.9
/v1/relfreq|category=vehicle type|featured=weak start[customer intention] ∧ outcome=reservation
/v1/relfreq|category=place|featured=outcome=unbooked
/v1/relfreq|category=value selling|featured=strong start[customer intention]
/v1/relfreq|category=missing-category|featured=outcome=reservation
/v1/drilldown|row=weak start[customer intention]|col=outcome=reservation
/v1/drilldown|row=weak start[customer intention]|col=outcome=reservation|limit=0
/v1/drilldown|row=weak start[customer intention]|col=outcome=reservation|limit=1
/v1/drilldown|row=weak start[customer intention]|col=outcome=reservation|limit=5
/v1/drilldown|row=weak start[customer intention]|col=outcome=reservation|limit=100000
/v1/drilldown|row=outcome=service|col=customer intention|limit=7
/v1/drilldown|row=suv[vehicle type]|col=strong start[customer intention]|limit=3
/v1/drilldown|row=discount|col=weak start[customer intention] ∧ outcome=unbooked|limit=10
/v1/drilldown|row=agent=A00|col=outcome=reservation|limit=2
/v1/drilldown|row=weak start[customer intention]|col=outcome=missing
/v1/trend|dim=outcome=reservation
/v1/trend|dim=weak start[customer intention] ∧ outcome=reservation
/v1/trend|dim=missing[customer intention]
/v1/concepts|category=customer intention
/v1/concepts|category=place
/v1/concepts|field=outcome
/v1/concepts|field=agent
/v1/concepts|category=missing-category
/v1/concepts|field=missing-field
/v1/associate|row=strong start[customer intention]|row=weak start[customer intention]|row=suv[vehicle type]|col=agent=A00|col=agent=A01|col=agent=A02|col=agent=A03
/v1/relfreq|category=customer intention|featured=agent=A01
/v1/associate|row=customer intention|row=outcome=reservation|col=outcome=reservation|col=outcome=unbooked|col=agent=A01
/v1/drilldown|row=strong start[customer intention]|col=agent=A02|limit=3
/v1/drilldown|row=customer intention|col=outcome=reservation|limit=12
/v1/drilldown|row=weak start[customer intention] ∧ outcome=unbooked|col=vehicle type ∧ place|limit=4
/v1/count
/v1/count|dim=[unclosed
/v1/associate|row=weak start[customer intention]|col=outcome=reservation|confidence=7
/v1/associate|row=weak start[customer intention]|col=outcome=reservation|confidence=NaN
/v1/drilldown|row=weak start[customer intention]|col=outcome=reservation|limit=-1
/v1/drilldown|row=discount|row=place|col=outcome=reservation
/v1/trend|dim=outcome=reservation|dim=outcome=service
/v1/relfreq|featured=outcome=reservation
/v1/concepts
/v1/concepts|category=place|field=outcome
/v1/nope
/v1/batch
/statsz
EOF
}

# statsz_mask is the jq program that masks a /statsz body (see the
# header); it takes bivocd's body and bivocfed's.
statsz_mask='
def mask(k): if has(k) then .[k] = "masked" else . end;
def serving(routes): .endpoints |= with_entries(.value |= mask("latency_buckets_us")
	| .key as $k | if any(routes[]; . == $k) then .value |= mask("requests") else . end);
def daemon(routes): .memory |= (mask("heap_alloc_bytes") | mask("heap_inuse_bytes") | mask("num_gc"))
	| .serving |= serving(routes)
	| if .pipeline then .pipeline |= map(mask("avg_latency_ns") | mask("max_latency_ns")) else . end
	| if .store then .store |= (mask("open_us") | mask("last_seal_unix_ms")
		| if has("segment_path") then .segment_path |= sub(".*/"; "DATA/") else . end) else . end;
if has("shards") then .serving |= serving(["/statsz"])
	| .shard_serving |= serving(["/statsz"])
	| .shards |= map(if .stats then .stats |= daemon(["/statsz"]) else . end)
else daemon(["/statsz"]) end'

batch='{"queries":[
{"endpoint":"count","params":{"dim":["outcome=reservation","weak start[customer intention]"]}},
{"endpoint":"associate","params":{"row":["strong start[customer intention]","weak start[customer intention]"],"col":["outcome=reservation","outcome=unbooked"]}},
{"endpoint":"associate","params":{"row":["suv[vehicle type]"],"col":["outcome=service"],"confidence":["0.99"]}},
{"endpoint":"relfreq","params":{"category":["vehicle type"],"featured":["outcome=reservation"]}},
{"endpoint":"relfreq","params":{"category":["missing-category"],"featured":["outcome=reservation"]}},
{"endpoint":"drilldown","params":{"row":["weak start[customer intention]"],"col":["outcome=reservation"],"limit":["4"]}},
{"endpoint":"drilldown","params":{"row":["suv[vehicle type]"],"col":["strong start[customer intention]"]}},
{"endpoint":"trend","params":{"dim":["suv[vehicle type]"]}},
{"endpoint":"concepts","params":{"category":["vehicle type"]}},
{"endpoint":"concepts","params":{"field":["trained"]}},
{"endpoint":"count","params":{}},
{"endpoint":"nope","params":{}}
]}'

# header NAME prints the last response's header of that name.
header() { grep -i -m1 "^$1:" "$work/head" | cut -d' ' -f2- | tr -d '\r' || true; }

# record FILE MODE BASE PATH PARAM... sends one request and writes what
# came back to FILE.
record() {
	local file=$1 mode=$2 base=$3 path=$4
	shift 4
	local args=(-s -o "$work/body" -D "$work/head")
	if [ "$mode" = gzip ]; then args+=(-H 'Accept-Encoding: gzip'); fi
	if [ "$path" = /v1/batch ]; then
		args+=(-H 'Content-Type: application/json' --data-binary "$batch")
	else
		args+=(-G)
		for p in "$@"; do args+=(--data-urlencode "$p"); done
	fi
	curl "${args[@]}" "http://$base$path"
	local encoding digest=
	encoding=$(header Content-Encoding)
	if [ "$encoding" = gzip ]; then
		digest=$(sha256sum <"$work/body" | cut -d' ' -f1)
		gzip -dc <"$work/body" >"$work/plain"
	else
		cp "$work/body" "$work/plain"
	fi
	sed -E 's/127\.0\.0\.1:[0-9]+/127.0.0.1:PORT/g' "$work/plain" >"$work/masked"
	if [ "$path" = /statsz ]; then
		jq "$statsz_mask" <"$work/masked" >"$work/statsz"
		mv "$work/statsz" "$work/masked"
	fi
	if [ -n "$digest" ] && ! cmp -s "$work/plain" "$work/masked"; then digest=masked; fi
	{
		printf '%s' "$path"
		if [ $# -gt 0 ]; then printf ' %s' "$@"; fi
		printf '\nstatus: %s\n' "$(head -1 "$work/head" | cut -d' ' -f2)"
		printf 'x-bivoc-generation: %s\n' "$(header X-Bivoc-Generation)"
		printf 'content-type: %s\n' "$(header Content-Type)"
		printf 'content-encoding: %s\n' "$encoding"
		printf 'gzip-sha256: %s\n\n' "$digest"
		cat "$work/masked"
	} >"$file"
}

# capture CONFIGURATION ADDR records every request against one daemon.
capture() {
	local dir=$out/$1 i=0
	mkdir -p "$dir"
	while IFS='|' read -r -a req; do
		i=$((i + 1))
		for mode in plain gzip; do
			record "$(printf '%s/%02d-%s' "$dir" "$i" "$mode")" "$mode" "$2" "${req[@]}"
		done
	done < <(requests)
	echo "capture: $1: $i requests" >&2
}

start mono9 bivocd "${world[@]}" -max-segments -1
settle "$addr"
capture mono-9seg "$addr"
stop mono9

start compact bivocd "${world[@]}"
settle "$addr"
capture mono-compact "$addr"
stop compact

# Each loader boots twice over a directory of its own; the startup file
# keeps the "persistence at" line, which says what the boot recovered.
for loader in eager mmap; do
	flags=(-data-dir "$work/$loader-data")
	if [ "$loader" = mmap ]; then flags+=(-mmap); fi
	for boot in first warm; do
		start "$loader-$boot" bivocd "${world[@]}" "${flags[@]}"
		settle "$addr"
		capture "$loader-$boot" "$addr"
		grep 'persistence at' "$work/$loader-$boot.log" | sed "s#$work#DATA#" >"$out/$loader-$boot/startup"
		stop "$loader-$boot"
	done
done

start shard0 bivocd "${world[@]}" -shard 0/2
s0=$addr
start shard1 bivocd "${world[@]}" -shard 1/2
s1=$addr
settle "$s0"
settle "$s1"
start fed bivocfed -shards "http://$s0,http://$s1"
fed=$addr
capture fed-healthy "$fed"
capture fed-repeat "$fed"
stop shard1
capture fed-degraded "$fed"
stop fed
stop shard0
echo "capture: written to $out" >&2
