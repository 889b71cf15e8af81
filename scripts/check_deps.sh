#!/usr/bin/env bash
# Fails if the root manifest or a `crates/*` manifest declares a
# dependency (normal, dev or build) that no `.rs` file of that package
# names. rustc's `unused_crate_dependencies` lint fires per target, so
# it cannot tell a dev-dependency one test uses from one none does; a
# whole-package text search can.
#
# Usage: scripts/check_deps.sh   (from anywhere; exits 1 on a finding)
set -euo pipefail
cd "$(dirname "$0")/.."

# Dependency names declared in one manifest's dependency tables.
declared() {
    awk '
        /^\[/ { in_deps = ($0 ~ /^\[(dev-|build-)?dependencies\]$/); next }
        in_deps && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }
    ' "$1"
}

status=0
check() {
    local manifest=$1
    shift
    local dep ident
    for dep in $(declared "$manifest"); do
        ident=${dep//-/_}
        # A package names a dependency by its crate identifier: `use
        # fa_mem::..`, `fa_mem::Addr`, `extern crate fa_mem`.
        if ! grep -rqwE --include='*.rs' "$ident" "$@" 2>/dev/null; then
            echo "unused dependency: $manifest declares \`$dep\`, but no .rs file under $* names \`$ident\`"
            status=1
        fi
    done
}

for manifest in crates/*/Cargo.toml; do
    check "$manifest" "$(dirname "$manifest")"
done
# The root package's own sources; the workspace members are checked above.
check Cargo.toml src tests examples

if [ "$status" -eq 0 ]; then
    echo "check_deps: every declared dependency is named in its package"
fi
exit "$status"
