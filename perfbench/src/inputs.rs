//! Seeded workload inputs. Every dataset comes from the `vbp-data`
//! space-weather generator and every variant sequence and append batch
//! from a [`Pcg32`] stream, all derived from the one `--seed`: the same
//! seed gives bit-identical inputs, another seed gives other ones.

use variantdbscan::{Variant, VariantSet};
use vbp_bench::{s3_variants, sw_eps_multiplier};
use vbp_data::{Pcg32, SpaceWeatherSpec, SW_FULL_SIZES};
use vbp_geom::Point2;

/// Points in the `sweep` map (SW1).
pub const SWEEP_POINTS: usize = 100_000;
/// Points in each `explore` tile.
pub const TILE_POINTS: usize = 20_000;
/// `explore` tiles (SW1–SW4 epochs, one tile each).
pub const TILES: usize = 4;
/// Popular variants per `explore` tile.
pub const POPULAR_PER_TILE: usize = 6;
/// Submits in one `explore` round, over all clients.
pub const EXPLORE_OPS: usize = 240;
/// Initial points of the `ingest` growing dataset and of its untouched
/// neighbour.
pub const INGEST_POINTS: usize = 20_000;
/// Append batches the `ingest` writer sends per round.
pub const INGEST_BATCHES: usize = 24;
/// Points per `ingest` append batch.
pub const INGEST_BATCH_POINTS: usize = 100;
/// Submits the `ingest` reader sends per round.
pub const INGEST_SUBMITS: usize = 72;
/// Popular variants per `ingest` dataset.
pub const INGEST_POPULAR: usize = 4;

/// SplitMix64 finalizer: decorrelates `(seed, stream)` pairs.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `size` points of the simulated TEC map of epoch `index` (1–4): a
/// seeded random half of the generator's `2 × size`-point map. The
/// map's features (wave trains, blobs) are the paper's epoch; the seed
/// picks the observations, so every seed clusters the same structure.
pub fn sw_map(index: u8, size: usize, seed: u64) -> Vec<Point2> {
    let mut pool = SpaceWeatherSpec::scaled(index, 2 * size).generate();
    let mut rng = Pcg32::new(derive(seed, u64::from(index)), u64::from(index));
    rng.shuffle(&mut pool);
    pool.truncate(size);
    pool
}

/// The ε multiplier for an SW map of epoch `index` generated at `size`
/// points (the paper's ε families are tuned to the full maps).
pub fn eps_scale(index: u8, size: usize) -> f64 {
    sw_eps_multiplier(SW_FULL_SIZES[usize::from(index) - 1], size)
}

/// The paper's V3 grid (19 ε × minpts {4, 8, 16}) scaled to `size`
/// points of epoch `index`.
pub fn v3_scaled(index: u8, size: usize) -> VariantSet {
    let m = eps_scale(index, size);
    VariantSet::new(
        s3_variants("V3")
            .iter()
            .map(|v| Variant::new(v.eps * m, v.minpts))
            .collect(),
    )
}

/// `count` popular variants, stratified so every seed asks for work of
/// the same shape: `count / 2` rungs spread over the scaled V3 ladder's
/// 0.12 … 0.24, each at minpts 4 and 16, every ε jittered by up to ±2 %.
fn popular(rng: &mut Pcg32, index: u8, size: usize, count: usize) -> Vec<Variant> {
    let m = eps_scale(index, size);
    let levels = count.div_ceil(2).max(2) - 1;
    (0..count)
        .map(|i| {
            let rung = 6.0 + 6.0 * (i / 2) as f64 / levels as f64;
            let jitter = 1.0 + 0.04 * (rng.next_f64() - 0.5);
            Variant::new(rung * 0.02 * m * jitter, if i % 2 == 0 { 4 } else { 16 })
        })
        .collect()
}

/// A fresh variant next to `base` that `base` dominates (larger ε, same
/// minpts), so a daemon holding `base` warms it from the cache.
fn nearby(rng: &mut Pcg32, base: Variant) -> Variant {
    Variant::new(
        base.eps * (1.0 + 0.002 + 0.05 * rng.next_f64()),
        base.minpts,
    )
}

/// One submit in a client's sequence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Submit {
    /// Index into the workload's dataset list.
    pub dataset: usize,
    /// The variant asked for.
    pub variant: Variant,
    /// Whether labels are requested.
    pub labels: bool,
    /// Whether the variant repeats one already answered.
    pub repeat: bool,
}

/// `sweep`: one SW1 map and the scaled V3 grid.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepInputs {
    /// The map.
    pub points: Vec<Point2>,
    /// The 57-variant grid.
    pub variants: VariantSet,
}

impl SweepInputs {
    /// Generates the inputs of `seed`.
    pub fn generate(seed: u64) -> Self {
        SweepInputs {
            points: sw_map(1, SWEEP_POINTS, seed),
            variants: v3_scaled(1, SWEEP_POINTS),
        }
    }
}

/// `explore`: SW tiles, their popular variants, and each client's
/// submit sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreInputs {
    /// Dataset names, one per tile.
    pub names: Vec<String>,
    /// Tile points, one vector per tile.
    pub tiles: Vec<Vec<Point2>>,
    /// Popular variants, per tile.
    pub popular: Vec<Vec<Variant>>,
    /// Submit sequences, one per client.
    pub clients: Vec<Vec<Submit>>,
}

impl ExploreInputs {
    /// Generates the inputs of `seed` for `clients` closed-loop clients
    /// sharing [`EXPLORE_OPS`] submits.
    pub fn generate(seed: u64, clients: usize) -> Self {
        let clients = clients.max(1);
        let indices: Vec<u8> = (1..=TILES as u8).collect();
        let names = indices
            .iter()
            .map(|i| format!("tile{i}_{}k", TILE_POINTS / 1_000))
            .collect();
        let tiles = indices
            .iter()
            .map(|&i| sw_map(i, TILE_POINTS, seed))
            .collect();
        let mut rng = Pcg32::new(derive(seed, 0xE1), 0xE1);
        let popular: Vec<Vec<Variant>> = indices
            .iter()
            .map(|&i| popular(&mut rng, i, TILE_POINTS, POPULAR_PER_TILE))
            .collect();
        let per_client = EXPLORE_OPS / clients;
        let sequences = (0..clients)
            .map(|c| {
                let mut rng = Pcg32::new(derive(seed, 0xE2), c as u64);
                (0..per_client)
                    .map(|_| {
                        let dataset = rng.below(TILES as u32) as usize;
                        let base = popular[dataset][rng.below(POPULAR_PER_TILE as u32) as usize];
                        let repeat = rng.below(4) != 0;
                        let variant = if repeat { base } else { nearby(&mut rng, base) };
                        Submit {
                            dataset,
                            variant,
                            labels: rng.below(4) == 0,
                            repeat,
                        }
                    })
                    .collect()
            })
            .collect();
        ExploreInputs {
            names,
            tiles,
            popular,
            clients: sequences,
        }
    }
}

/// `ingest`: a growing map with its append batches, an untouched map,
/// and the reader's submit sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct IngestInputs {
    /// Dataset names: `[growing, untouched]`.
    pub names: [String; 2],
    /// Initial points: `[growing, untouched]`.
    pub initial: [Vec<Point2>; 2],
    /// Append batches for the growing dataset, in order.
    pub batches: Vec<Vec<Point2>>,
    /// The reader's submits.
    pub reader: Vec<Submit>,
    /// The variant of the final labelled check on the grown dataset.
    pub final_variant: Variant,
}

impl IngestInputs {
    /// Generates the inputs of `seed`. The batches continue the growing
    /// map's own sample stream: later observations of the same field.
    pub fn generate(seed: u64) -> Self {
        let total = INGEST_POINTS + INGEST_BATCHES * INGEST_BATCH_POINTS;
        let mut grown = sw_map(1, total, seed);
        let tail = grown.split_off(INGEST_POINTS);
        let batches = tail
            .chunks(INGEST_BATCH_POINTS)
            .map(<[Point2]>::to_vec)
            .collect();
        let still = sw_map(2, INGEST_POINTS, seed);
        let mut rng = Pcg32::new(derive(seed, 0x16), 0x16);
        let popular = [
            popular(&mut rng, 1, INGEST_POINTS, INGEST_POPULAR),
            popular(&mut rng, 2, INGEST_POINTS, INGEST_POPULAR),
        ];
        // Between two appends the reader sends the same three kinds of
        // submit: a popular variant of the growing dataset (its cache
        // entries were just dropped, so this is from-scratch work), a
        // fresh variant next to it (warmed from that answer), and a
        // popular or fresh variant of the untouched dataset.
        let reader = (0..INGEST_SUBMITS / 3)
            .flat_map(|block| {
                let live = popular[0][block % INGEST_POPULAR];
                let still = popular[1][block % INGEST_POPULAR];
                let still_repeat = block % 2 == 0;
                [
                    Submit {
                        dataset: 0,
                        variant: live,
                        labels: false,
                        repeat: false,
                    },
                    Submit {
                        dataset: 0,
                        variant: nearby(&mut rng, live),
                        labels: false,
                        repeat: false,
                    },
                    Submit {
                        dataset: 1,
                        variant: if still_repeat {
                            still
                        } else {
                            nearby(&mut rng, still)
                        },
                        labels: block % 4 < 2,
                        repeat: still_repeat,
                    },
                ]
            })
            .collect();
        let final_variant = popular[0][rng.below(INGEST_POPULAR as u32) as usize];
        IngestInputs {
            names: [
                format!("live_{}k", INGEST_POINTS / 1_000),
                format!("still_{}k", INGEST_POINTS / 1_000),
            ],
            initial: [grown, still],
            batches,
            reader,
            final_variant,
        }
    }

    /// The growing dataset's points after every batch, in caller order
    /// (appended ids continue the initial numbering).
    pub fn final_points(&self) -> Vec<Point2> {
        let mut all = self.initial[0].clone();
        for b in &self.batches {
            all.extend_from_slice(b);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sweep_inputs_other_seed_other_map() {
        let a = SweepInputs::generate(7);
        assert_eq!(a, SweepInputs::generate(7));
        assert_eq!(a.variants.len(), 57);
        assert_ne!(a.points, SweepInputs::generate(8).points);
    }

    #[test]
    fn same_seed_same_explore_inputs_other_seed_other_ones() {
        let a = ExploreInputs::generate(7, 2);
        let b = ExploreInputs::generate(8, 2);
        assert_eq!(a, ExploreInputs::generate(7, 2));
        assert_ne!(a.tiles, b.tiles);
        assert_ne!(a.clients, b.clients);
        assert_eq!(a.clients.iter().map(Vec::len).sum::<usize>(), EXPLORE_OPS);
        // Fresh variants are dominated by a popular one of their tile.
        for s in a.clients.iter().flatten() {
            let pops = &a.popular[s.dataset];
            assert_eq!(s.repeat, pops.contains(&s.variant));
            assert!(pops.iter().any(|p| s.variant.can_reuse(p)));
        }
    }

    #[test]
    fn same_seed_same_ingest_inputs_other_seed_other_ones() {
        let a = IngestInputs::generate(7);
        let b = IngestInputs::generate(8);
        assert_eq!(a, IngestInputs::generate(7));
        assert_ne!(a.initial, b.initial);
        assert_ne!(a.batches, b.batches);
        assert_ne!(a.reader, b.reader);
        assert_eq!(a.batches.len(), INGEST_BATCHES);
        assert_eq!(
            a.final_points().len(),
            INGEST_POINTS + INGEST_BATCHES * INGEST_BATCH_POINTS
        );
    }
}
