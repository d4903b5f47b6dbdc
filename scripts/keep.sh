# keep.sh — the KEEP-rule matching shared by the function ledger
# (scripts/reach.sh) and the flag ledger (scripts/flag_ledger.sh).
#
# Source it and set two file names: $keep_rules holds the rules, one
# "<glob> <reason>" per line, and $keep_used collects the glob of every
# rule that matched a key.

# keep_reason KEY prints the reason of the first rule whose glob matches
# KEY, or UNCLASSIFIED when none does.
keep_reason() {
    while read -r glob why; do
        [ -n "$glob" ] || continue
        # shellcheck disable=SC2254
        case "$1" in $glob)
            echo "$glob" >> "$keep_used"
            printf '%s\n' "$why"
            return
            ;;
        esac
    done < "$keep_rules"
    echo UNCLASSIFIED
}

# keep_stale names on stderr each rule that matched no key, and returns 1
# if there is one: the rule names a deleted function or flag, one that is
# now reached or set, or one an earlier rule already covers.
keep_stale() {
    stale=0
    while read -r glob _; do
        [ -n "$glob" ] || continue
        grep -qxF -- "$glob" "$keep_used" && continue
        echo "stale KEEP rule: $glob" >&2
        stale=1
    done < "$keep_rules"
    return "$stale"
}
