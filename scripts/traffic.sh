#!/usr/bin/env bash
# Which src/ code does no pinned program run?
#
# Builds build-cov (Debug, --coverage -O0), runs the benches and examples
# whose output CI pins (scripts/pinned.sh) in a scratch directory, and prints
# every function under src/ (src/apps aside: the apps are the workload) that
# none of them executed, as `file:line name`, sorted. A function defined in a
# header counts as run if any translation unit ran its copy.
#
# Not a CI step: a coverage build and the 19 runs take a few minutes.
#
#   scripts/traffic.sh > unrun.txt
set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD"
source scripts/pinned.sh

targets=()
for bench in $pinned_benches; do targets+=("bench_$bench"); done
for example in $pinned_examples; do targets+=("$example"); done

cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" >/dev/null
cmake --build build-cov -j "$(nproc)" --target "${targets[@]}" >/dev/null
# Counts from an earlier run would add to this one's.
find build-cov -name '*.gcda' -delete

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
(
  cd "$work"
  for bench in $pinned_benches; do
    "$root/build-cov/bench/bench_$bench" >/dev/null 2>&1
  done
  for example in $pinned_examples; do
    "$root/build-cov/examples/$example" >/dev/null 2>&1
  done
)

# gcov writes one JSON document per data file; gcov runs from the scratch
# directory so no stray output lands in the tree.
find "$root/build-cov" -name '*.gcda' | sort >"$work/gcda.txt"
(cd "$work" && xargs gcov --json-format --stdout --demangled-names \
  <gcda.txt >coverage.json 2>/dev/null)

python3 - "$root" "$work/coverage.json" <<'EOF'
import json, os, sys

root, path = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep
apps = os.path.join(src, "apps") + os.sep
ran = {}  # (file, line, name) -> executed in any translation unit
with open(path) as f:
    for doc in f:
        for entry in json.loads(doc)["files"]:
            file = os.path.normpath(os.path.join(root, entry["file"]))
            if not file.startswith(src) or file.startswith(apps):
                continue
            for fn in entry["functions"]:
                key = (os.path.relpath(file, root), fn["start_line"],
                       fn["demangled_name"])
                ran[key] = ran.get(key, False) or fn["execution_count"] > 0
for (file, line, name), hit in sorted(ran.items()):
    if not hit:
        print(f"{file}:{line} {name}")
EOF
