#!/usr/bin/env bash
# make doc-check: the documents, the Makefile, CI, the scripts and the
# skills may only name things that exist. Fails on
#   - a BENCH_<n>….json path that no committed file ends with,
#   - a `make <target>` (in backticks, at the start of a line, or after
#     `run:`) the Makefile has no rule for,
#   - a Benchmark…/Test… name that is not (a prefix of, as -run and -bench
#     patterns are) a function `go test -list` prints for ./... ,
#   - a backticked `pkg.Name` or `pkg.Type.Member` in README.md or
#     DESIGN.md, where pkg is perfq or an internal/ package, that
#     `go doc` cannot find in that package.
# CHANGES.md, ROADMAP.md and the frozen benchmark/ tree are history and
# are not read.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md Makefile .github scripts .claude/skills)
bad=0
report() { # file:line, what it names
	echo "doc-check: $1 names $2"
	bad=1
}
# mentions REGEX: every match in the documents, as file:line:match.
mentions() { grep -rnoE -- "$1" "${docs[@]}" || true; }

committed=$(git ls-files)
while IFS=: read -r file line path; do
	grep -qE "(^|/)${path//./\\.}\$" <<<"$committed" ||
		report "$file:$line" "$path, which is not a committed file"
done < <(mentions '[A-Za-z0-9_./-]*BENCH_[0-9][A-Za-z0-9_.]*\.json')

targets=$(grep -oE '^[a-z][a-z0-9-]*:' Makefile | tr -d :)
while IFS=: read -r file line cmd; do
	grep -qx -- "${cmd##* }" <<<"$targets" ||
		report "$file:$line" "\`make ${cmd##* }\`, a target the Makefile does not have"
done < <(mentions '(^[[:space:]]*|`|run:[[:space:]]*)make( -[a-z]+| [A-Z_]+=[^ `]*)* [a-z][a-z0-9-]*')

funcs=$(go test -list '.*' ./... | grep -E '^(Test|Benchmark)' || true)
while IFS=: read -r file line name; do
	grep -q -- "^$name" <<<"$funcs" ||
		report "$file:$line" "$name, which go test -list ./... does not print"
done < <(mentions '\b(Benchmark|Test)[A-Z][A-Za-z0-9_]*')

declare -A found # pkg.Name -> 0 (declared) or 1, one go doc per name
while IFS=: read -r file line ref; do
	ref=${ref#\`}
	pkg=${ref%%.*}
	if [[ $pkg == perfq ]]; then
		path=perfq
	elif [[ -d internal/$pkg ]]; then
		path=perfq/internal/$pkg
	else
		continue # a variable, or a package from outside the module
	fi
	if [[ -z ${found[$ref]:-} ]]; then
		found[$ref]=0
		go doc -u "$path" "${ref#*.}" >/dev/null 2>&1 || found[$ref]=1
	fi
	[[ ${found[$ref]} == 0 ]] ||
		report "$file:$line" "\`$ref\`, which $path does not declare"
done < <(grep -noE '`[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)?' README.md DESIGN.md || true)

exit $bad
