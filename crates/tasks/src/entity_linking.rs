//! Entity-linking task (§VI-A.4 "Entity Linking").
//!
//! A small synthetic knowledge graph stands in for Wikidata, which is not
//! available offline; its ambiguity is planted on purpose. A mention links automatically when its name is unambiguous; ambiguous
//! names ("Birmingham") need a disambiguating context value — e.g. a state
//! abbreviation — from one of the augmented columns. Utility = linking
//! accuracy against the ground truth.

use std::collections::BTreeMap;

use metam_core::Task;
use metam_table::Table;

/// One knowledge-graph entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entity {
    /// Surface name (e.g. "Birmingham").
    pub name: String,
    /// Disambiguating attribute (e.g. state "AL").
    pub context: String,
}

impl Entity {
    /// Canonical id, `name|context`.
    pub fn id(&self) -> String {
        format!("{}|{}", self.name, self.context)
    }
}

/// A toy knowledge graph: entities indexed by surface name.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeGraph {
    by_name: BTreeMap<String, Vec<Entity>>,
}

impl KnowledgeGraph {
    /// Build from entity ids (`name|context`), deduplicated. To make the
    /// ambiguity realistic every name also gets one foreign decoy entity
    /// (the paper's "Birmingham, UK").
    pub fn from_truth(truth: &[String]) -> KnowledgeGraph {
        let mut kg = KnowledgeGraph::default();
        for t in truth {
            if let Some((name, context)) = t.split_once('|') {
                kg.insert(Entity {
                    name: name.to_string(),
                    context: context.to_string(),
                });
            }
        }
        let names: Vec<String> = kg.by_name.keys().cloned().collect();
        for name in names {
            kg.insert(Entity {
                name,
                context: "UK".to_string(),
            });
        }
        kg
    }

    /// Insert an entity (no duplicates).
    pub fn insert(&mut self, e: Entity) {
        let list = self.by_name.entry(e.name.clone()).or_default();
        if !list.contains(&e) {
            list.push(e);
        }
    }

    /// Entities with a given surface name.
    pub fn lookup(&self, name: &str) -> &[Entity] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// Total entity count.
    pub fn len(&self) -> usize {
        self.by_name.values().map(Vec::len).sum()
    }

    /// Is the graph empty?
    pub fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }
}

/// The linking task.
pub struct EntityLinkingTask {
    /// Column of the mentions.
    pub mention: String,
    /// Ground-truth entity id per row.
    pub truth: Vec<String>,
    /// The knowledge graph.
    pub kg: KnowledgeGraph,
}

impl EntityLinkingTask {
    /// Build the task (and its KG) from a ground-truth assignment.
    pub fn new(mention: impl Into<String>, truth: Vec<String>) -> EntityLinkingTask {
        let kg = KnowledgeGraph::from_truth(&truth);
        EntityLinkingTask {
            mention: mention.into(),
            truth,
            kg,
        }
    }

    /// Link one mention given its row's context values. Returns the chosen
    /// entity id, or `None` when the mention stays ambiguous.
    fn link(&self, name: &str, context_values: &[String]) -> Option<String> {
        let candidates = self.kg.lookup(name);
        match candidates.len() {
            0 => None,
            1 => Some(candidates[0].id()),
            _ => {
                // Disambiguate through any context value matching an
                // entity's context attribute.
                for v in context_values {
                    if let Some(e) = candidates.iter().find(|e| &e.context == v) {
                        return Some(e.id());
                    }
                }
                None
            }
        }
    }
}

impl Task for EntityLinkingTask {
    fn name(&self) -> &str {
        "entity-linking"
    }

    fn utility(&self, table: &Table) -> f64 {
        let Ok(mention_idx) = table.column_index(&self.mention) else {
            return 0.0;
        };
        if self.truth.is_empty() || table.nrows() != self.truth.len() {
            return 0.0;
        }
        // Context columns: every *string* column other than the mention.
        let context_cols: Vec<usize> = table
            .string_column_indices()
            .into_iter()
            .filter(|&i| i != mention_idx)
            .collect();
        let mention_col = &table.columns()[mention_idx];
        let mut correct = 0usize;
        for row in 0..table.nrows() {
            let name = match mention_col.get(row) {
                metam_table::Value::Str(s) => s,
                _ => continue,
            };
            let context: Vec<String> = context_cols
                .iter()
                .filter_map(|&c| match table.columns()[c].get(row) {
                    metam_table::Value::Str(s) => Some(s),
                    _ => None,
                })
                .collect();
            if self.link(&name, &context) == Some(self.truth[row].clone()) {
                correct += 1;
            }
        }
        correct as f64 / self.truth.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_datagen::linking::{build_linking, LinkingConfig};
    use metam_datagen::TaskSpec;
    use metam_table::join::left_join_column;

    #[test]
    fn kg_contains_decoys() {
        let kg = KnowledgeGraph::from_truth(&["Springfield|IL".to_string()]);
        assert_eq!(kg.lookup("Springfield").len(), 2, "truth + UK decoy");
    }

    #[test]
    fn state_augmentation_unlocks_linking() {
        let s = build_linking(&LinkingConfig::default());
        let TaskSpec::EntityLinking { mention, truth } = &s.spec else {
            panic!()
        };
        let task = EntityLinkingTask::new(mention.clone(), truth.clone());
        let base = task.utility(&s.din);
        assert!(base < 0.2, "everything ambiguous at baseline: {base}");

        let st = s.tables.iter().find(|t| t.name == "city_states").unwrap();
        let col = left_join_column(&s.din, 0, st, 0, st.column_index("state_abbrev").unwrap())
            .unwrap()
            .with_name("aug0_state_abbrev");
        let boosted = task.utility(&s.din.with_column(col).unwrap());
        assert!(boosted > 0.9, "state column disambiguates: {boosted}");
    }

    #[test]
    fn irrelevant_augmentation_gains_nothing() {
        let s = build_linking(&LinkingConfig::default());
        let TaskSpec::EntityLinking { mention, truth } = &s.spec else {
            panic!()
        };
        let task = EntityLinkingTask::new(mention.clone(), truth.clone());
        let base = task.utility(&s.din);
        let misc = s
            .tables
            .iter()
            .find(|t| t.name.starts_with("city_misc_"))
            .unwrap();
        let tag_idx = misc
            .columns()
            .iter()
            .position(|c| c.name.as_deref().is_some_and(|n| n.starts_with("tag_")))
            .unwrap();
        let col = left_join_column(&s.din, 0, misc, 0, tag_idx)
            .unwrap()
            .with_name("aug0_tag");
        let u = task.utility(&s.din.with_column(col).unwrap());
        assert!((u - base).abs() < 1e-9);
    }
}
