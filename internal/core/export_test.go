package core

// SecondJoinSelection is the selection of Procedure 4's second join: the
// distinct b's of the first join's pairs, as Unchained builds it.
func SecondJoinSelection(firstPairs []Pair) InnerSelection {
	return pointSetSelection(indexB(firstPairs, onRight))
}
