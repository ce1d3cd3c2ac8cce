package stache

// NewIdleDirectory returns a home page's directory with every block
// Idle, the one the page's first handler attaches, for the external
// tests.
func NewIdleDirectory(blocksPerPage int) any { return newHomeDir(blocksPerPage) }
