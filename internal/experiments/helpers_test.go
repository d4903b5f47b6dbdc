package experiments

// Test-only helpers: accessors and utilities that only tests call.

// cachedEntries reports the total number of memoized results (tests).
func cachedEntries() int {
	return traceMemo.Len() + agentMemo.Len() + ipcMemo.Len() +
		mixMemo.Len() + victimMemo.Len() + oracleMemo.Len() + selectionMemo.Len()
}
