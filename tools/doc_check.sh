#!/bin/sh
# Doc honesty check for `dune build @doc-check`:
#  - every source-file path a documentation file cites (backtick-quoted
#    `lib/...ml`, `bin/...`, etc.) must still exist — a cited executable
#    `dir/name.exe` resolves to its source `dir/name.ml` — and
#  - every long CLI flag (`--foo-bar`) a documentation file mentions must
#    appear in the help corpus (the concatenated `--help=plain` output of
#    every souffle subcommand, plus the flags the bench driver parses by
#    hand), so the docs cannot describe flags the binaries dropped.
# Usage: doc_check.sh ROOT HELP_CORPUS DOC...
set -eu
root=$1
corpus=$2
shift 2
status=0
if [ ! -f "$corpus" ]; then
  echo "doc-check: missing help corpus $corpus" >&2
  exit 1
fi
known_flags=$(grep -oE -- '--[a-z][a-z0-9-]+' "$corpus" | sort -u)
for doc in "$@"; do
  if [ ! -f "$doc" ]; then
    echo "doc-check: missing documentation file $doc" >&2
    status=1
    continue
  fi
  # backtick-quoted repo paths with an extension, e.g. `lib/te/expr.ml`
  cited=$(grep -oE '`(lib|bin|bench|test|tools|examples|docs)/[A-Za-z0-9_./-]+\.[A-Za-z]+`' "$doc" \
    | tr -d '`' | sort -u)
  for path in $cited; do
    case $path in
      *.exe) src=${path%.exe}.ml ;;
      *) src=$path ;;
    esac
    if [ ! -f "$root/$src" ]; then
      echo "doc-check: $doc cites $path, which does not exist" >&2
      status=1
    fi
  done
  if [ -z "$cited" ]; then
    echo "doc-check: $doc cites no source paths (suspicious)" >&2
    status=1
  fi
  # long CLI flags, e.g. --batch-max (short flags like -m are too ambiguous)
  flags=$(grep -oE -- '--[a-z][a-z0-9-]+' "$doc" | sort -u)
  for flag in $flags; do
    if ! printf '%s\n' "$known_flags" | grep -qxF -- "$flag"; then
      echo "doc-check: $doc mentions $flag, absent from CLI help output" >&2
      status=1
    fi
  done
done
exit $status
