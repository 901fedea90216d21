#!/bin/sh
# End-to-end CLI integration test: generate -> info -> solve (all
# algorithms) -> evaluate -> emulate -> delay -> stability -> price.
# Usage: cli_roundtrip.sh /path/to/mecsc
set -eu

MECSC="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$MECSC" generate --size 60 --providers 20 --seed 3 -o "$DIR/inst.json"
test -s "$DIR/inst.json"

"$MECSC" info -i "$DIR/inst.json" | grep -q "providers"

for alg in lcf appro appro-literal jo offload selfish; do
  "$MECSC" solve -i "$DIR/inst.json" --algorithm "$alg" \
      -o "$DIR/$alg.json" 2>/dev/null
  test -s "$DIR/$alg.json"
  "$MECSC" evaluate -i "$DIR/inst.json" -p "$DIR/$alg.json" \
      | grep -q "feasible.*yes"
done

# The solve output records its algorithm.
grep -q '"algorithm": "lcf"' "$DIR/lcf.json"

"$MECSC" emulate -i "$DIR/inst.json" -p "$DIR/lcf.json" --horizon 10 \
    | grep -q "requests served"
"$MECSC" delay -i "$DIR/inst.json" -p "$DIR/lcf.json" \
    | grep -q "mean request delay"
"$MECSC" stability -i "$DIR/inst.json" | grep -q "side-payment budget"
"$MECSC" price -i "$DIR/inst.json" -o "$DIR/priced.json" 2>/dev/null
grep -q '"prices"' "$DIR/priced.json"

# Unknown flags and missing files fail cleanly (non-zero, no crash).
if "$MECSC" solve -i /nonexistent.json --algorithm lcf 2>/dev/null; then
  echo "expected failure on missing file" >&2
  exit 1
fi
# A malformed instance file fails, and the message names the byte offset.
printf '{"format_version": 1, "topology": [1,' > "$DIR/bad.json"
if "$MECSC" solve -i "$DIR/bad.json" --algorithm lcf 2>"$DIR/bad.err"; then
  echo "expected failure on malformed instance" >&2
  exit 1
fi
if ! grep -q "json parse error at offset 37: unexpected end of input" \
    "$DIR/bad.err"; then
  echo "malformed instance error lacks its offset:" >&2
  cat "$DIR/bad.err" >&2
  exit 1
fi
if "$MECSC" bogus-subcommand 2>/dev/null; then
  echo "expected failure on bad subcommand" >&2
  exit 1
fi

echo "cli_roundtrip OK"
