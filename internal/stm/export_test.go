package stm

// ReadSetLen returns the number of orec read-set entries tx has logged.
func ReadSetLen(tx *Tx) int { return len(tx.reads) }

// ValueLogLen returns the number of word values NOrec has logged for tx.
func ValueLogLen(tx *Tx) int { return len(tx.nReadsW) }

// OwnedLen returns the number of orecs tx holds locked.
func OwnedLen(tx *Tx) int { return len(tx.owned) }

// UndoLen returns the number of words in tx's undo log.
func UndoLen(tx *Tx) int { return len(tx.undoW) }
