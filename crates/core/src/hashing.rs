//! The hashings an HABF runs over. One filter type,
//! [`crate::habf::HabfOver`], is generic over [`Hashing`]; the three
//! hashings differ only in what this trait holds:
//!
//! | Hashing | Filter | Bound per key |
//! |---|---|---|
//! | Table II [`HashFamily`] | `Habf` | the family itself (pass-through) |
//! | double hashing [`SimulatedFamily`] (§III-G) | `FHabf` | one xxh128 evaluation ([`KeyBoundSimulated`]) |
//! | block-local [`crate::BlockedFamily`] | `BlockedHabf` | the key's block start |
//!
//! The module is private, so the traits are sealed: no other crate can
//! add a hashing, and only the two with a registered sharded id
//! implement [`ShardHashing`].

use crate::habf::HabfConfig;
use crate::persist::PersistError;
use habf_hashing::double::{KeyBoundSimulated, SimulatedFamily};
use habf_hashing::{HashFamily, HashId, HashProvider, FAMILY_SIZE};

/// What an HABF over one hash family needs to know about it: its
/// identity in the registry and the image, how a build sizes it, how a
/// decode restores it, and how it hashes one key.
pub trait Hashing: HashProvider + Clone + Send + Sync + 'static {
    /// Persist kind byte of the image (0 HABF, 1 f-HABF, 2 blocked).
    const KIND: u8;
    /// Registry id of the filter over this hashing.
    const ID: &'static str;
    /// Display name ([`habf_filters::Filter::name`]).
    const NAME: &'static str;
    /// Whether TPJO runs with the Γ index (f-HABF turns it off).
    const GAMMA: bool;

    /// One key bound to this hashing: its [`HashProvider::position`] is
    /// the key's Bloom position (for the filter's own `m`), and its
    /// [`HashProvider::hash_id`] the chain hashes the HashExpressor walks.
    type Bound<'a>: HashProvider
    where
        Self: 'a;

    /// The family and the Bloom size in bits a validated `config` builds
    /// with (`positives` calibrates the blocked selector).
    fn for_config<K: AsRef<[u8]>>(positives: &[K], config: &HabfConfig) -> (Self, usize);

    /// The family a decoded image names: its family `size`, `sim_seed`
    /// slot and Bloom size `m`.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] for a family this hashing cannot hold.
    fn from_image(size: usize, sim_seed: u64, m: usize) -> Result<Self, PersistError>;

    /// The image's `sim_seed` slot for this family.
    fn sim_seed(&self) -> u64;

    /// Binds `key`, so both query rounds and the chain walk share the
    /// per-key work.
    fn bind<'a>(&'a self, key: &[u8]) -> Self::Bound<'a>;

    /// The batch pipeline's phase 1 for `key` on a layout whose Bloom
    /// positions share one cache line: that line's first bit, which phase
    /// 1 hints and [`Hashing::bind_line`] turns back into the bound key in
    /// phase 2. `None` (the default) has phase 1 plan and hint every `H0`
    /// position, each on its own line.
    fn plan_line(&self, _key: &[u8]) -> Option<usize> {
        None
    }

    /// The bound key of a line [`Hashing::plan_line`] planned.
    fn bind_line(&self, _line: usize) -> Option<Self::Bound<'_>> {
        None
    }

    /// Inspection rows of this family (`habf inspect`), if any.
    fn metadata(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }
}

/// A hashing with a registered sharded id.
pub trait ShardHashing: Hashing {
    /// Registry id of the sharded filter.
    const SHARDED_ID: &'static str;
    /// Display name of the sharded filter.
    const SHARDED_NAME: &'static str;
}

impl Hashing for HashFamily {
    const KIND: u8 = 0;
    const ID: &'static str = "habf";
    const NAME: &'static str = "HABF";
    const GAMMA: bool = true;
    type Bound<'a> = &'a HashFamily;

    fn for_config<K: AsRef<[u8]>>(_: &[K], config: &HabfConfig) -> (Self, usize) {
        (
            HashFamily::with_size(config.usable_hashes()),
            config.split().0,
        )
    }

    fn from_image(size: usize, _: u64, _: usize) -> Result<Self, PersistError> {
        if size > FAMILY_SIZE {
            return Err(PersistError::Corrupt("family size out of range"));
        }
        Ok(HashFamily::with_size(size))
    }

    fn sim_seed(&self) -> u64 {
        0
    }

    #[inline]
    fn bind<'a>(&'a self, _key: &[u8]) -> &'a HashFamily {
        self
    }
}

impl ShardHashing for HashFamily {
    const SHARDED_ID: &'static str = "sharded-habf";
    const SHARDED_NAME: &'static str = "Sharded-HABF";
}

/// Largest simulated family: ids are `u8`.
const MAX_SIMULATED: usize = 255;

impl Hashing for SimulatedFamily {
    const KIND: u8 = 1;
    const ID: &'static str = "fhabf";
    const NAME: &'static str = "f-HABF";
    const GAMMA: bool = false;
    type Bound<'a> = KeyBoundSimulated;

    /// Every id the cell width addresses, capped at [`MAX_SIMULATED`].
    fn for_config<K: AsRef<[u8]>>(_: &[K], config: &HabfConfig) -> (Self, usize) {
        let size = ((1usize << (config.cell_bits - 1)) - 1).min(MAX_SIMULATED);
        (
            SimulatedFamily::new(size, config.seed ^ 0xFA57),
            config.split().0,
        )
    }

    fn from_image(size: usize, sim_seed: u64, _: usize) -> Result<Self, PersistError> {
        if size > MAX_SIMULATED {
            return Err(PersistError::Corrupt("family size out of range"));
        }
        Ok(SimulatedFamily::new(size, sim_seed))
    }

    fn sim_seed(&self) -> u64 {
        self.seed()
    }

    #[inline]
    fn bind(&self, key: &[u8]) -> KeyBoundSimulated {
        KeyBoundSimulated::new(self, key)
    }
}

impl ShardHashing for SimulatedFamily {
    const SHARDED_ID: &'static str = "sharded-fhabf";
    const SHARDED_NAME: &'static str = "Sharded-f-HABF";
}

/// A key bound to its block of a [`crate::BlockedFamily`] layout: Bloom
/// positions are in-block offsets from the key's block start (the
/// range argument is the filter's own `m`), chain hashes are the inner
/// family's. It lives in this private module, beside the trait whose
/// associated type it is, so no other crate can name it.
#[derive(Clone, Copy)]
pub struct BlockBound<'a> {
    pub(crate) family: &'a crate::BlockedFamily,
    pub(crate) start: usize,
}

impl HashProvider for BlockBound<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.family.len()
    }

    #[inline]
    fn hash_id(&self, id: HashId, key: &[u8]) -> u64 {
        self.family.hash_id(id, key)
    }

    #[inline]
    fn position(&self, id: HashId, key: &[u8], _m: usize) -> usize {
        self.start + self.family.offset(id, key)
    }
}
