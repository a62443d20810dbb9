//! Problem instances for DA-MS.
//!
//! Two views exist:
//!
//! * [`Instance`] — the raw Definition 5 input: a token universe with HT
//!   labels, the existing ring signatures of the batch (with their claimed
//!   requirements), and a token to consume. Used by the exact BFS solver.
//! * [`ModularInstance`] — the practical-configuration view (§6.1): the
//!   universe decomposed into disjoint *modules*, each either a super RS
//!   (Definition 7) or a fresh token (Definition 8). Used by the
//!   Progressive, Game-theoretic and baseline algorithms.

use dams_diversity::{
    DiversityRequirement, HtHistogram, RingIndex, RingSet, RsId, TokenId, TokenUniverse,
};

/// The raw DA-MS instance (Definition 5).
#[derive(Debug, Clone)]
pub struct Instance {
    /// The mixin universe `T` with its token→HT assignment.
    pub universe: TokenUniverse,
    /// Existing ring signatures in proposal order.
    pub rings: RingIndex,
    /// The claimed diversity requirement of each existing ring, aligned
    /// with `rings` ids.
    pub claims: Vec<DiversityRequirement>,
}

impl Instance {
    /// Build an instance; `claims[i]` belongs to ring `i`.
    ///
    /// Panics when the claim list is misaligned — that is a construction
    /// bug, not a runtime condition.
    pub fn new(
        universe: TokenUniverse,
        rings: RingIndex,
        claims: Vec<DiversityRequirement>,
    ) -> Self {
        assert_eq!(
            rings.len(),
            claims.len(),
            "one claimed requirement per existing ring"
        );
        Instance {
            universe,
            rings,
            claims,
        }
    }

    /// An instance with no pre-existing rings.
    pub fn fresh(universe: TokenUniverse) -> Self {
        Instance {
            universe,
            rings: RingIndex::new(),
            claims: Vec::new(),
        }
    }

    /// The claimed requirement of ring `id`.
    pub fn claim(&self, id: RsId) -> DiversityRequirement {
        self.claims[id.0 as usize]
    }
}

/// A module identifier within a [`ModularInstance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleId(pub usize);

/// What a module is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleKind {
    /// A super RS (Definition 7): a ring not contained in any later ring.
    SuperRs(RsId),
    /// A fresh token (Definition 8): a token in no existing ring.
    FreshToken,
}

/// One selectable unit under the first practical configuration: the new
/// ring must be a union of whole modules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    pub id: ModuleId,
    pub kind: ModuleKind,
    /// The module's token set.
    pub tokens: RingSet,
}

impl Module {
    /// `|x_i|` — the number of tokens the module contributes.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Why a decomposition failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecomposeError {
    /// Two super RSs overlap without nesting — the history violated the
    /// first practical configuration, so the modular view does not exist.
    NonLaminarRings { a: RsId, b: RsId },
}

impl std::fmt::Display for DecomposeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecomposeError::NonLaminarRings { a, b } => write!(
                f,
                "rings {} and {} overlap without nesting; history violates the first practical configuration",
                a.0, b.0
            ),
        }
    }
}

impl std::error::Error for DecomposeError {}

/// The practical-configuration view of an instance.
#[derive(Debug, Clone)]
pub struct ModularInstance {
    pub universe: TokenUniverse,
    modules: Vec<Module>,
    /// token index → module id.
    module_of: Vec<ModuleId>,
    /// Per super-RS module: the subset count `v_i` (rings of the history
    /// contained in it, including itself). Fresh tokens carry 0.
    subset_counts: Vec<usize>,
}

impl ModularInstance {
    /// Decompose a raw instance into super RSs and fresh tokens.
    ///
    /// Fails when existing rings are not laminar (overlap without nesting),
    /// which cannot arise when every historical ring respected the first
    /// practical configuration.
    pub fn decompose(instance: &Instance) -> Result<Self, DecomposeError> {
        let universe = instance.universe.clone();
        let n = universe.len();

        // Super RSs: rings with no *later* superset (Definition 7).
        let ids: Vec<RsId> = instance.rings.ids().collect();
        let mut is_super = vec![true; ids.len()];
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                if instance.rings.ring(b).is_superset(instance.rings.ring(a)) {
                    is_super[i] = false;
                    break;
                }
            }
        }

        // Laminarity check + subset counts among super RSs.
        let supers: Vec<RsId> = ids
            .iter()
            .zip(&is_super)
            .filter(|(_, s)| **s)
            .map(|(id, _)| *id)
            .collect();
        for (i, &a) in supers.iter().enumerate() {
            for &b in supers[i + 1..].iter() {
                let ra = instance.rings.ring(a);
                let rb = instance.rings.ring(b);
                if ra.intersects(rb) && !ra.is_superset(rb) && !rb.is_superset(ra) {
                    return Err(DecomposeError::NonLaminarRings { a, b });
                }
                // Two *super* rings can still nest when the earlier one is
                // a superset of the later one (supersets only disqualify
                // earlier rings). Treat the contained one as non-super for
                // module purposes: it will be swallowed below.
            }
        }
        // Keep only maximal super rings as modules.
        let mut maximal: Vec<RsId> = Vec::new();
        'outer: for &a in &supers {
            for &b in &supers {
                if a != b
                    && instance.rings.ring(b).is_superset(instance.rings.ring(a))
                    && (instance.rings.ring(b).len() > instance.rings.ring(a).len() || b < a)
                {
                    continue 'outer;
                }
            }
            maximal.push(a);
        }

        let mut modules: Vec<Module> = Vec::new();
        let mut module_of: Vec<Option<ModuleId>> = vec![None; n];
        let mut subset_counts: Vec<usize> = Vec::new();

        for rs in maximal {
            let ring = instance.rings.ring(rs).clone();
            let id = ModuleId(modules.len());
            for &t in ring.tokens() {
                // Laminarity guarantees no token is claimed twice.
                debug_assert!(module_of[t.0 as usize].is_none());
                module_of[t.0 as usize] = Some(id);
            }
            // v_i: number of history rings contained in this super RS.
            let v = instance
                .rings
                .iter()
                .filter(|(_, r)| ring.is_superset(r))
                .count();
            subset_counts.push(v);
            modules.push(Module {
                id,
                kind: ModuleKind::SuperRs(rs),
                tokens: ring,
            });
        }
        // Remaining tokens are fresh. Resolving the assignment in the same
        // pass keeps the mapping total by construction — no unwrap needed.
        let mut assigned = Vec::with_capacity(n);
        for t in 0..n as u32 {
            match module_of[t as usize] {
                Some(id) => assigned.push(id),
                None => {
                    let id = ModuleId(modules.len());
                    assigned.push(id);
                    subset_counts.push(0);
                    modules.push(Module {
                        id,
                        kind: ModuleKind::FreshToken,
                        tokens: RingSet::new([TokenId(t)]),
                    });
                }
            }
        }

        Ok(ModularInstance {
            universe,
            modules,
            module_of: assigned,
            subset_counts,
        })
    }

    /// Build a modular instance directly (used by the synthetic workload
    /// generator, which produces super RSs and fresh tokens natively).
    ///
    /// Panics when modules overlap or do not cover the universe — workload
    /// construction bugs, not runtime conditions.
    pub fn from_modules(universe: TokenUniverse, modules: Vec<Module>) -> Self {
        let subset_counts = modules
            .iter()
            .map(|m| match m.kind {
                ModuleKind::SuperRs(_) => 1,
                ModuleKind::FreshToken => 0,
            })
            .collect();
        Self::from_modules_with_counts(universe, modules, subset_counts)
    }

    /// [`Self::from_modules`] with explicit subset counts `v_i`, for callers
    /// (the streaming index, [`crate::ModularHistory::commit`]) that track
    /// how many committed rings each super RS swallowed. [`Self::decompose`] derives
    /// the same counts from the raw ring history; supplying them here keeps
    /// an incrementally maintained view bit-identical to a decomposition.
    ///
    /// Panics when modules overlap, do not cover the universe, or the count
    /// list is misaligned — construction bugs, not runtime conditions.
    pub fn from_modules_with_counts(
        universe: TokenUniverse,
        modules: Vec<Module>,
        subset_counts: Vec<usize>,
    ) -> Self {
        let n = universe.len();
        assert_eq!(
            modules.len(),
            subset_counts.len(),
            "one subset count per module"
        );
        let mut module_of: Vec<Option<ModuleId>> = vec![None; n];
        for m in &modules {
            for &t in m.tokens.tokens() {
                assert!(
                    module_of[t.0 as usize].replace(m.id).is_none(),
                    "token {} in two modules",
                    t.0
                );
            }
        }
        ModularInstance {
            universe,
            module_of: module_of
                .into_iter()
                .enumerate()
                .map(|(t, m)| m.unwrap_or_else(|| panic!("token {t} in no module")))
                .collect(),
            modules,
            subset_counts,
        }
    }

    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    pub fn module(&self, id: ModuleId) -> &Module {
        &self.modules[id.0]
    }

    /// The module containing a token (`x_τ` when the token is the target).
    pub fn module_of(&self, token: TokenId) -> ModuleId {
        self.module_of[token.0 as usize]
    }

    /// The subset count `v_i` of a module (Definition 7).
    pub fn subset_count(&self, id: ModuleId) -> usize {
        self.subset_counts[id.0]
    }

    /// Number of super-RS modules.
    pub fn super_count(&self) -> usize {
        self.modules
            .iter()
            .filter(|m| matches!(m.kind, ModuleKind::SuperRs(_)))
            .count()
    }

    /// Number of fresh-token modules.
    pub fn fresh_count(&self) -> usize {
        self.modules.len() - self.super_count()
    }

    /// HT histogram of a module union (the candidate ring).
    pub fn histogram_of(&self, module_ids: &[ModuleId]) -> HtHistogram {
        let hts = module_ids.iter().flat_map(|id| {
            self.modules[id.0]
                .tokens
                .tokens()
                .iter()
                .map(|t| self.universe.ht(*t))
        });
        HtHistogram::from_hts(hts)
    }

    /// Materialise the ring of a module selection.
    pub fn ring_of(&self, module_ids: &[ModuleId]) -> RingSet {
        RingSet::new(
            module_ids
                .iter()
                .flat_map(|id| self.modules[id.0].tokens.tokens().iter().copied()),
        )
    }

    /// Total ring size of a selection (modules are disjoint, so additive).
    pub fn size_of(&self, module_ids: &[ModuleId]) -> usize {
        module_ids.iter().map(|id| self.modules[id.0].len()).sum()
    }

    /// `q_M` — count of the most frequent HT across the whole universe
    /// (Theorems 6.5 / 6.7).
    pub fn q_max(&self) -> usize {
        HtHistogram::from_hts((0..self.universe.len() as u32).map(|t| self.universe.ht(TokenId(t))))
            .q1()
    }

    /// `z_M` — the largest module size (Theorems 6.5 / 6.7).
    pub fn z_max(&self) -> usize {
        self.modules.iter().map(Module::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dams_diversity::{ring, HtId};

    fn uni(n: usize) -> TokenUniverse {
        TokenUniverse::new((0..n as u32).map(HtId).collect())
    }

    fn req() -> DiversityRequirement {
        DiversityRequirement::new(1.0, 2)
    }

    #[test]
    fn decompose_paper_super_rs_example() {
        // §6.1: r1={t1,t2} then r2={t1,t2,t3} then r3={t4,t5};
        // T = {t1..t6}. Super RSs: r2 (v=2) and r3 (v=1); t6 fresh.
        // (token 0 exists as filler with its own HT)
        let rings = RingIndex::from_rings([ring(&[1, 2]), ring(&[1, 2, 3]), ring(&[4, 5])]);
        let inst = Instance::new(uni(7), rings, vec![req(); 3]);
        let m = ModularInstance::decompose(&inst).unwrap();
        let supers: Vec<&Module> = m
            .modules()
            .iter()
            .filter(|x| matches!(x.kind, ModuleKind::SuperRs(_)))
            .collect();
        assert_eq!(supers.len(), 2);
        let r2 = supers
            .iter()
            .find(|x| x.kind == ModuleKind::SuperRs(RsId(1)))
            .unwrap();
        assert_eq!(m.subset_count(r2.id), 2, "r1 and r2 are subsets of r2");
        let r3 = supers
            .iter()
            .find(|x| x.kind == ModuleKind::SuperRs(RsId(2)))
            .unwrap();
        assert_eq!(m.subset_count(r3.id), 1);
        // fresh tokens: t0 and t6
        assert_eq!(m.fresh_count(), 2);
    }

    #[test]
    fn non_laminar_history_rejected() {
        let rings = RingIndex::from_rings([ring(&[1, 2]), ring(&[2, 3])]);
        let inst = Instance::new(uni(4), rings, vec![req(); 2]);
        assert!(matches!(
            ModularInstance::decompose(&inst),
            Err(DecomposeError::NonLaminarRings { .. })
        ));
    }

    #[test]
    fn every_token_has_exactly_one_module() {
        let rings = RingIndex::from_rings([ring(&[0, 1]), ring(&[0, 1, 2]), ring(&[4, 5])]);
        let inst = Instance::new(uni(6), rings, vec![req(); 3]);
        let m = ModularInstance::decompose(&inst).unwrap();
        let mut coverage = vec![0usize; 6];
        for module in m.modules() {
            for t in module.tokens.tokens() {
                coverage[t.0 as usize] += 1;
            }
        }
        assert!(coverage.iter().all(|&c| c == 1), "{coverage:?}");
        for t in 0..6u32 {
            let mid = m.module_of(TokenId(t));
            assert!(m.module(mid).tokens.contains(TokenId(t)));
        }
    }

    #[test]
    fn from_modules_roundtrip() {
        let universe = uni(4);
        let modules = vec![
            Module {
                id: ModuleId(0),
                kind: ModuleKind::SuperRs(RsId(0)),
                tokens: ring(&[0, 1]),
            },
            Module {
                id: ModuleId(1),
                kind: ModuleKind::FreshToken,
                tokens: ring(&[2]),
            },
            Module {
                id: ModuleId(2),
                kind: ModuleKind::FreshToken,
                tokens: ring(&[3]),
            },
        ];
        let m = ModularInstance::from_modules(universe, modules);
        assert_eq!(m.super_count(), 1);
        assert_eq!(m.fresh_count(), 2);
        assert_eq!(m.size_of(&[ModuleId(0), ModuleId(1)]), 3);
        assert_eq!(m.ring_of(&[ModuleId(0), ModuleId(2)]), ring(&[0, 1, 3]));
    }

    #[test]
    #[should_panic(expected = "in two modules")]
    fn overlapping_modules_panic() {
        ModularInstance::from_modules(
            uni(2),
            vec![
                Module {
                    id: ModuleId(0),
                    kind: ModuleKind::FreshToken,
                    tokens: ring(&[0, 1]),
                },
                Module {
                    id: ModuleId(1),
                    kind: ModuleKind::FreshToken,
                    tokens: ring(&[1]),
                },
            ],
        );
    }

    #[test]
    fn q_max_and_z_max() {
        let universe = TokenUniverse::new(vec![HtId(0), HtId(0), HtId(0), HtId(1)]);
        let m = ModularInstance::from_modules(
            universe,
            vec![
                Module {
                    id: ModuleId(0),
                    kind: ModuleKind::SuperRs(RsId(0)),
                    tokens: ring(&[0, 1, 2]),
                },
                Module {
                    id: ModuleId(1),
                    kind: ModuleKind::FreshToken,
                    tokens: ring(&[3]),
                },
            ],
        );
        assert_eq!(m.q_max(), 3);
        assert_eq!(m.z_max(), 3);
    }

    #[test]
    fn later_duplicate_ring_disqualifies_earlier() {
        // r0 = {1,2}, r1 = {1,2}: r1 is a (non-strict) superset proposed
        // later, so r0 is not super; r1 is.
        let rings = RingIndex::from_rings([ring(&[1, 2]), ring(&[1, 2])]);
        let inst = Instance::new(uni(3), rings, vec![req(); 2]);
        let m = ModularInstance::decompose(&inst).unwrap();
        let supers: Vec<&Module> = m
            .modules()
            .iter()
            .filter(|x| matches!(x.kind, ModuleKind::SuperRs(_)))
            .collect();
        assert_eq!(supers.len(), 1);
        assert_eq!(supers[0].kind, ModuleKind::SuperRs(RsId(1)));
        assert_eq!(m.subset_count(supers[0].id), 2);
    }
}
