//! Construction of a [`DramCacheController`] from a [`SimConfig`].

use crate::config::SimConfig;
use banshee::{BansheeController, BansheeVariant};
use banshee_dcache::{
    alloy::AlloyCache, batman::Batman, cacheonly::CacheOnly, hma::Hma, nocache::NoCache, tdc::Tdc,
    unison::UnisonCache, DramCacheController, DramCacheDesign,
};

/// Build the controller the configuration asks for, including the optional
/// BATMAN bandwidth-balancing wrapper.
pub fn build_controller(config: &SimConfig) -> Box<dyn DramCacheController> {
    let inner: Box<dyn DramCacheController> = match config.design {
        DramCacheDesign::NoCache => Box::new(NoCache::new()),
        DramCacheDesign::CacheOnly => Box::new(CacheOnly::new()),
        DramCacheDesign::Alloy { fill_probability } => {
            Box::new(AlloyCache::new(&config.dcache, fill_probability))
        }
        DramCacheDesign::Unison => Box::new(UnisonCache::new(&config.dcache)),
        DramCacheDesign::Tdc => Box::new(Tdc::new(&config.dcache)),
        DramCacheDesign::Hma => Box::new(Hma::new(&config.dcache)),
        DramCacheDesign::Banshee => Box::new(BansheeController::with_variant(
            config.banshee_config(),
            BansheeVariant::Standard,
        )),
        DramCacheDesign::BansheeLru => Box::new(BansheeController::with_variant(
            config.banshee_config(),
            BansheeVariant::Lru,
        )),
        DramCacheDesign::BansheeFbrNoSample => Box::new(BansheeController::with_variant(
            config.banshee_config(),
            BansheeVariant::FbrNoSample,
        )),
    };
    if config.use_batman {
        Box::new(Batman::with_default_config(inner))
    } else {
        inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_design_constructs() {
        let designs = [
            DramCacheDesign::NoCache,
            DramCacheDesign::CacheOnly,
            DramCacheDesign::Alloy {
                fill_probability: 1.0,
            },
            DramCacheDesign::Alloy {
                fill_probability: 0.1,
            },
            DramCacheDesign::Unison,
            DramCacheDesign::Tdc,
            DramCacheDesign::Hma,
            DramCacheDesign::Banshee,
            DramCacheDesign::BansheeLru,
            DramCacheDesign::BansheeFbrNoSample,
        ];
        for d in designs {
            let cfg = SimConfig::test_default(d);
            let c = build_controller(&cfg);
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn batman_wrapper_applies() {
        let mut cfg = SimConfig::test_default(DramCacheDesign::Banshee);
        cfg.use_batman = true;
        let c = build_controller(&cfg);
        assert!(c.name().contains("BATMAN"));
    }

    #[test]
    fn design_label_matches_controller_name() {
        for d in DramCacheDesign::figure4_lineup() {
            let cfg = SimConfig::test_default(d);
            let c = build_controller(&cfg);
            assert_eq!(c.name(), d.label());
        }
    }
}
