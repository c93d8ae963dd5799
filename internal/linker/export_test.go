package linker

import "bivoc/internal/warehouse"

// scoreEntity computes the full Eqn-3 score of an entity for the tokens
// with no lists built, so every similarity is computed.
func (e *Engine) scoreEntity(tokens []Token, table string, row warehouse.RowID) float64 {
	ctx := e.begin(tokens)
	defer ctx.release()
	ctx.bind(e.route(table))
	return ctx.scoreEntity(ctx.toks, row)
}

// wholeLists returns a view of the engine that keeps no heads, so it
// ranks every list whole, and scores with the cached features as the
// engine does: the reference of TestRankedPrefixProperty.
func (e *Engine) wholeLists() *Engine {
	view := *e
	view.heads = nil
	return &view
}
