package core

import (
	"bivoc/internal/annotate"
	"bivoc/internal/clean"
	"bivoc/internal/mining"
	"bivoc/internal/synth"
	"bivoc/internal/textproc"
)

// CatCompetitor is the semantic category of competitor-brand mentions.
const CatCompetitor = "competitor"

// EmailAssociationConfig drives the Figure 4 analysis: associate
// mentions of competitor brands in customer emails with the category
// assigned to each email, then drill from any cell to the documents.
type EmailAssociationConfig struct {
	World synth.TelecomConfig
}

// DefaultEmailAssociationConfig returns the standard configuration.
func DefaultEmailAssociationConfig() EmailAssociationConfig {
	return EmailAssociationConfig{World: synth.DefaultTelecomConfig()}
}

// EmailAssociation is the assembled Figure 4 state.
type EmailAssociation struct {
	Index *mining.Index
	Table *mining.AssocTable
}

// buildCompetitorAnnotator maps competitor brand mentions to concepts.
func buildCompetitorAnnotator() *annotate.Engine {
	dict := annotate.NewDictionary()
	for _, comp := range synth.Competitors() {
		dict.Add(annotate.Entry{
			Surface: comp, PoS: annotate.PoSProperNoun,
			Canonical: comp, Category: CatCompetitor,
		})
	}
	return annotate.NewEngine(dict)
}

// RunEmailCategoryAnalysis cleans the email corpus, annotates competitor
// mentions, indexes each email under its assigned category, and builds
// the competitor × category association table (Figure 4's screen).
func RunEmailCategoryAnalysis(cfg EmailAssociationConfig) (*EmailAssociation, error) {
	world, err := synth.NewTelecomWorld(cfg.World)
	if err != nil {
		return nil, err
	}
	cleaner := clean.NewCleaner()
	en := buildCompetitorAnnotator()
	var docs []mining.Document
	for _, m := range world.Emails {
		cm := cleaner.ProcessEmail(m.Raw)
		if cm.Verdict != clean.VerdictKeep || m.Category == "" {
			continue
		}
		docs = append(docs, mining.Document{
			ID:       m.ID,
			Concepts: en.Annotate(nil, textproc.Words(cm.Text)),
			Fields:   map[string]string{"category": m.Category},
			Time:     m.Month,
		})
	}
	ix := mining.Seal(docs)
	var rows []mining.Dim
	for _, comp := range synth.Competitors() {
		rows = append(rows, mining.ConceptDim(CatCompetitor, comp))
	}
	var cols []mining.Dim
	for _, cat := range synth.EmailCategories() {
		cols = append(cols, mining.FieldDim("category", cat))
	}
	tbl := ix.Associate(rows, cols, mining.DefaultConfidence)
	return &EmailAssociation{Index: ix, Table: tbl}, nil
}
