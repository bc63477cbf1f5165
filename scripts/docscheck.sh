#!/usr/bin/env bash
# docscheck.sh — cross-reference gate for the operator docs.
#
# The docs use four link-ish conventions that silently rot as the repo
# grows; this script turns each into a CI failure:
#
#   1. `§N` (digits) refers to a `## N.` section heading in DESIGN.md.
#      Roman-numeral refs like §VI.1 point into the source paper and are
#      out of scope.
#   2. `EXPERIMENTS.md <ID>` (ID = E1/A2/T5...) refers to a `## <ID> —`
#      experiment heading in EXPERIMENTS.md.
#   3. Backtick-quoted repo paths (`internal/...`, `cmd/...`,
#      `scripts/...`, or anything ending in .md/.go/.sh) must exist.
#   4. A backticked test name (`TestX`, `BenchmarkX`, `FuzzX`,
#      `ExampleX`) must name a func declared in some .go file of the tree.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md)
fail=0

# --- 1. §N section refs against DESIGN.md headings -----------------------
sections=$(grep -oE '^## [0-9]+\.' DESIGN.md | grep -oE '[0-9]+')
for doc in "${docs[@]}"; do
    while IFS=: read -r line ref; do
        [[ -n "$ref" ]] || continue
        n=${ref#§}
        if ! grep -qx "$n" <<<"$sections"; then
            echo "$doc:$line: §$n does not match any '## $n.' heading in DESIGN.md" >&2
            fail=1
        fi
    done < <(grep -noE '§[0-9]+' "$doc" || true)
done

# --- 2. experiment IDs against EXPERIMENTS.md headings -------------------
experiments=$(grep -oE '^## [EAT][0-9]+(/[EAT][0-9]+)* ' EXPERIMENTS.md \
    | grep -oE '[EAT][0-9]+')
for doc in "${docs[@]}"; do
    while IFS=: read -r line ref; do
        id=$(grep -oE '[EAT][0-9]+$' <<<"$ref")
        if ! grep -qx "$id" <<<"$experiments"; then
            echo "$doc:$line: $ref does not match any '## $id —' heading in EXPERIMENTS.md" >&2
            fail=1
        fi
    done < <(grep -noE 'EXPERIMENTS\.md [EAT][0-9]+' "$doc" || true)
done

# --- 3. backticked repo paths exist --------------------------------------
# Only tokens that are unambiguously paths: a known top-level directory
# prefix, or a bare filename with a source/doc extension. Commands, flags
# and globs (anything with spaces, '*' or '$') never match the pattern.
for doc in "${docs[@]}"; do
    while IFS=: read -r line path; do
        p=${path#\`}
        p=${p%\`}
        p=${p#./}
        if [[ ! -e "$p" ]]; then
            echo "$doc:$line: referenced path $p does not exist" >&2
            fail=1
        fi
    done < <(grep -noE '`\.?/?(internal|cmd|scripts)/[A-Za-z0-9_/.-]+`|`[A-Za-z0-9_.-]+\.(md|go|sh)`' "$doc" || true)
done

# --- 4. backticked test names are declared funcs -------------------------
funcs=$(grep -rhoE --include='*.go' '^func (Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*\(' . \
    | sed -E 's/^func //; s/\($//' | sort -u)
for doc in "${docs[@]}"; do
    while IFS=: read -r line name; do
        name=${name//\`/}
        if ! grep -qx "$name" <<<"$funcs"; then
            echo "$doc:$line: \`$name\` names no func in the tree" >&2
            fail=1
        fi
    done < <(grep -noE '`(Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*`' "$doc" || true)
done

if [[ "$fail" -ne 0 ]]; then
    echo "docscheck: stale cross-references found" >&2
    exit 1
fi
echo "docscheck: OK (${#docs[@]} docs, $(wc -l <<<"$sections") DESIGN sections, $(wc -l <<<"$experiments") experiments)"
