package pagetable

// dropHint forgets the leaf hint, so the table's next operation
// descends from the root. The leaf-hint differential test calls it on
// its reference table before every operation.
func (t *Table) dropHint() { t.hint = nil }
