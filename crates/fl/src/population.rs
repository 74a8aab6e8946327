//! Procedural client populations: million-client deployments in O(1) state.
//!
//! A [`crate::Simulation`] built with [`crate::Simulation::new`] owns one
//! live [`Dataset`] per client, which caps the deployment size at whatever
//! fits in memory. [`crate::Simulation::over_population`] replaces that
//! vector with a [`Population`]: a *recipe* from which any client's dataset
//! can be regenerated on demand. A client that is not sampled this round costs
//! nothing; a sampled client costs one dataset for exactly as long as it is
//! training. That is what makes `n = 1_000_000, q = 0.3%` rounds run on a
//! laptop: peak memory scales with the cohort (and the shard size), never
//! with `n`.
//!
//! Determinism is the same contract as the rest of the round loop: every
//! client's data is a pure function of `(population seed, client id)`, so
//! regenerating a dataset in pass 2 of the shard protocol (DESIGN.md §14)
//! yields bit-for-bit the dataset pass 1 trained on, on any thread, in any
//! order.

use crate::stages::training::derive_seed;
use fedcav_data::{Dataset, SyntheticConfig};
use fedcav_tensor::Result;

/// Seed salt separating the per-client *dataset* streams from the training
/// and corruption streams that hash the same master seed.
const DATA_STREAM: u64 = 0xDA7A_5EED_0FC1_1E47;

/// Everything needed to reconstruct one client without holding its data:
/// the client's identity, its derived generation seed, and its data
/// profile. The client's *fault* profile needs no field here — a
/// [`crate::FaultModel`] is already a pure function of
/// `(deployment seed, round, id)`, so the id is the profile handle.
#[derive(Debug, Clone, Copy)]
pub struct ClientDescriptor {
    /// The client's index in the deployment.
    pub id: usize,
    /// Seed of the client's dataset stream, derived from the population
    /// seed with a dedicated salt (never shared with training streams).
    pub seed: u64,
    /// The generation recipe for this client's local data (seed already
    /// applied). `data.generate()` reproduces the dataset bit-for-bit.
    pub data: SyntheticConfig,
}

/// A deployment of `n` procedurally-described clients.
///
/// Holds O(1) state regardless of `n`: the population is the function
/// `id -> ClientDescriptor`, not a list. Every client shares one data
/// profile (tier, samples per class) but draws its own templates and
/// samples from its own seed — a crude but deterministic form of the
/// paper's heterogeneous client data.
#[derive(Debug, Clone, Copy)]
pub struct Population {
    n: usize,
    seed: u64,
    profile: SyntheticConfig,
}

impl Population {
    /// A population of `n` clients drawn from `profile`, seeded by `seed`.
    /// The profile's own seed field is irrelevant: each client overrides it
    /// with its derived stream.
    pub fn new(n: usize, seed: u64, profile: SyntheticConfig) -> Self {
        Population { n, seed, profile }
    }

    /// Number of clients in the deployment.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The population's master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shared data profile (before per-client seeding).
    pub fn profile(&self) -> SyntheticConfig {
        self.profile
    }

    /// The descriptor of client `client`. O(1); does not generate any data.
    /// Returns `None` for ids outside the deployment — the round loop
    /// treats that as a failed client, never a panic.
    pub fn descriptor(&self, client: usize) -> Option<ClientDescriptor> {
        if client >= self.n {
            return None;
        }
        let seed = derive_seed(self.seed ^ DATA_STREAM, 0, client);
        Some(ClientDescriptor { id: client, seed, data: self.profile.with_seed(seed) })
    }

    /// Generate client `client`'s local training data. O(dataset size), and
    /// bit-for-bit reproducible: two calls (on any threads, in any order)
    /// return identical datasets. Only the training split is drawn; it is
    /// bitwise `descriptor(client).data.generate()?.0`.
    pub fn materialize(&self, client: usize) -> Result<Dataset> {
        let Some(desc) = self.descriptor(client) else {
            return Err(fedcav_tensor::TensorError::IndexOutOfBounds {
                index: client,
                bound: self.n,
            });
        };
        desc.data.generate_train()
    }

    /// Materialize *every* client's dataset — O(n) memory, the exact cost
    /// the population source exists to avoid. Only for comparison tests
    /// that pit a datasets-source [`crate::Simulation`] over the same
    /// clients against the population source; never call this at scale.
    pub fn materialize_all(&self) -> Result<Vec<Dataset>> {
        (0..self.n).map(|c| self.materialize(c)).collect()
    }

    /// A server-side test set drawn from the population's own stream
    /// (distinct from every client's stream).
    pub fn test_set(&self) -> Result<Dataset> {
        let seed = derive_seed(self.seed ^ DATA_STREAM, 1, usize::MAX);
        let (_train, test) = self.profile.with_seed(seed).generate()?;
        Ok(test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedcav_data::SyntheticKind;

    fn tiny() -> Population {
        Population::new(5, 9, SyntheticConfig::new(SyntheticKind::MnistLike, 2, 1))
    }

    #[test]
    fn descriptors_are_distinct_and_stable() {
        let p = tiny();
        let a = p.descriptor(0).unwrap();
        let b = p.descriptor(1).unwrap();
        assert_ne!(a.seed, b.seed, "clients must not share a data stream");
        assert_eq!(a.seed, p.descriptor(0).unwrap().seed);
        assert_eq!(a.id, 0);
        assert_eq!(a.data.seed, a.seed);
    }

    #[test]
    fn out_of_range_is_none_not_panic() {
        let p = tiny();
        assert!(p.descriptor(5).is_none());
        assert!(p.materialize(99).is_err());
    }

    #[test]
    fn materialize_is_bit_reproducible() {
        let p = tiny();
        let a = p.materialize(3).unwrap();
        let b = p.materialize(3).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.images.as_slice(), b.images.as_slice());
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn materialize_is_bitwise_the_descriptors_train_split() {
        let kinds =
            [SyntheticKind::MnistLike, SyntheticKind::FmnistLike, SyntheticKind::Cifar10Like];
        for kind in kinds {
            let side = kind.image_dims()[1] as isize;
            for seed in 0..20u64 {
                for shift in [Some(0), None, Some(side + 1)] {
                    for noise in [Some(0.0), None] {
                        for per_class in [0, 1, 3] {
                            let mut profile = SyntheticConfig::new(kind, per_class, 1);
                            profile.shift_override = shift;
                            profile.noise_override = noise;
                            let p = Population::new(50, seed, profile);
                            let c = (seed as usize * 17) % p.n();
                            let got = p.materialize(c).unwrap();
                            let want = p.descriptor(c).unwrap().data.generate().unwrap().0;
                            let bits = |d: &Dataset| {
                                d.images.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                            };
                            assert_eq!(got.labels, want.labels, "{profile:?} client {c}");
                            assert!(bits(&got) == bits(&want), "{profile:?} client {c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn clients_differ_from_each_other() {
        let p = tiny();
        let a = p.materialize(0).unwrap();
        let b = p.materialize(1).unwrap();
        assert_ne!(a.images.as_slice(), b.images.as_slice());
    }

    #[test]
    fn population_seed_changes_every_client() {
        let p = tiny();
        let q = Population::new(5, 10, p.profile());
        assert_ne!(
            p.materialize(0).unwrap().images.as_slice(),
            q.materialize(0).unwrap().images.as_slice()
        );
    }

    #[test]
    fn test_set_is_distinct_from_client_data() {
        let p = tiny();
        let t = p.test_set().unwrap();
        assert!(t.len() > 0);
        let c = p.materialize(0).unwrap();
        assert_ne!(t.images.as_slice(), c.images.as_slice());
    }
}
