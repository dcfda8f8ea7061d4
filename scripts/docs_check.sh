#!/bin/sh
# docs_check.sh — documentation link hygiene, part of `make check`:
#   1. every file under docs/ is reachable from README.md (an orphaned
#      document is one nobody will find);
#   2. every intra-repo markdown link in README.md and docs/*.md resolves
#      to an existing file or directory (anchors and external URLs are
#      out of scope);
#   3. every backticked internal/<pkg> or examples/<dir> path in README.md,
#      DESIGN.md, and docs/*.md names an existing directory, so prose does
#      not outlive a deleted package.
# Usage: ./scripts/docs_check.sh  (from the repository root)
set -eu

fail=0

for doc in docs/*.md; do
    if ! grep -q "$doc" README.md; then
        echo "docs-check: $doc is not linked from README.md" >&2
        fail=1
    fi
done

# Pull every ](target) out of the checked set, drop external links and
# pure anchors, strip #fragments, and require the target to exist
# relative to the linking file's directory.
for md in README.md docs/*.md; do
    dir=$(dirname "$md")
    links=$(grep -o '](\([^)]*\))' "$md" | sed 's/^](//; s/)$//') || true
    for link in $links; do
        case $link in
        http://* | https://* | mailto:* | \#*) continue ;;
        esac
        target=${link%%#*}
        [ -n "$target" ] || continue
        if [ ! -e "$dir/$target" ]; then
            echo "docs-check: $md links to missing $link" >&2
            fail=1
        fi
    done
done

# Pull every `code span` out of the checked set, then every internal/<pkg>
# or examples/<dir> prefix inside it (a span may be a file path, a
# package-qualified name, or a shell command), and require the directory.
for md in README.md DESIGN.md docs/*.md; do
    paths=$(grep -o '`[^`]*`' "$md" | grep -o '\(internal\|examples\)/[A-Za-z0-9_-]*' | sort -u) || true
    for path in $paths; do
        if [ ! -d "$path" ]; then
            echo "docs-check: $md names missing directory $path" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "docs-check: OK"
