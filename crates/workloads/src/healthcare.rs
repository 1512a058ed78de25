//! §II smart healthcare: remote vital-sign monitoring.
//!
//! Patients stream heart-rate samples; a configurable fraction of
//! patients develop tachycardia episodes (sustained elevated rate) that
//! a monitoring pipeline must detect. The ground truth (episode windows)
//! is kept so detection precision/recall is measurable.

use mv_common::sample::normal_sample;
use mv_common::seeded_rng;
use mv_common::time::{SimDuration, SimTime};
use mv_stream::StreamRecord;
use rand::Rng;

/// Parameters.
#[derive(Debug, Clone)]
pub struct HealthParams {
    /// Monitored patients.
    pub patients: usize,
    /// Sampling interval per patient.
    pub sample_interval: SimDuration,
    /// Monitoring duration.
    pub duration: SimDuration,
    /// Fraction of patients who develop an episode.
    pub episode_fraction: f64,
    /// Episode length.
    pub episode_len: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HealthParams {
    fn default() -> Self {
        HealthParams {
            patients: 100,
            sample_interval: SimDuration::from_millis(1000),
            duration: SimDuration::from_secs(300),
            episode_fraction: 0.15,
            episode_len: SimDuration::from_secs(40),
            seed: 23,
        }
    }
}

/// An episode's ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
// lint:allow(dead-pub): exposed by `VitalsStream::episodes`, which other crates use
pub struct Episode {
    /// Patient index.
    pub patient: usize,
    /// Start.
    pub start: SimTime,
    /// End.
    pub end: SimTime,
}

/// The generated vitals stream.
#[derive(Debug)]
pub struct VitalsStream {
    /// Heart-rate records (key = patient index).
    pub records: Vec<StreamRecord>,
    /// Ground-truth episodes.
    pub episodes: Vec<Episode>,
}

impl VitalsStream {
    /// Generate.
    pub fn generate(params: &HealthParams) -> Self {
        let mut rng = seeded_rng(params.seed);
        let mut episodes = Vec::new();
        let mut per_patient_baseline = Vec::with_capacity(params.patients);
        for p in 0..params.patients {
            per_patient_baseline.push(normal_sample(&mut rng, 72.0, 6.0));
            if rng.gen_bool(params.episode_fraction) {
                let latest_start =
                    params.duration.as_micros().saturating_sub(params.episode_len.as_micros());
                let start = SimTime::from_micros(rng.gen_range(0..latest_start.max(1)));
                episodes.push(Episode { patient: p, start, end: start + params.episode_len });
            }
        }
        let mut records = Vec::new();
        let steps = params.duration.as_micros() / params.sample_interval.as_micros();
        for s in 0..steps {
            let now = SimTime::ZERO + params.sample_interval.mul_f64(s as f64);
            for (p, baseline) in per_patient_baseline.iter().enumerate() {
                let in_episode = episodes
                    .iter()
                    .any(|e| e.patient == p && now >= e.start && now < e.end);
                let mean = if in_episode { 135.0 } else { *baseline };
                let hr = normal_sample(&mut rng, mean, 4.0).max(30.0);
                records.push(StreamRecord::physical(now, p as u64, hr));
            }
        }
        VitalsStream { records, episodes }
    }

    /// Simple threshold detector: patient flagged when a window-mean of
    /// `window` samples exceeds `threshold`. Returns flagged patients.
    pub fn detect(&self, threshold: f64, window: usize) -> Vec<usize> {
        let mut per_patient: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
        for r in &self.records {
            per_patient.entry(r.key).or_default().push(r.value);
        }
        let mut flagged = Vec::new();
        for (p, vals) in per_patient {
            let hit = vals
                .windows(window)
                .any(|w| w.iter().sum::<f64>() / window as f64 > threshold);
            if hit {
                flagged.push(p as usize);
            }
        }
        flagged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_catches_episodes_with_high_precision() {
        let v = VitalsStream::generate(&HealthParams::default());
        assert!(!v.episodes.is_empty());
        let flagged = v.detect(110.0, 5);
        let truth: std::collections::BTreeSet<usize> =
            v.episodes.iter().map(|e| e.patient).collect();
        let tp = flagged.iter().filter(|p| truth.contains(p)).count();
        let recall = tp as f64 / truth.len() as f64;
        let precision = if flagged.is_empty() { 1.0 } else { tp as f64 / flagged.len() as f64 };
        assert!(recall > 0.9, "recall {recall}");
        assert!(precision > 0.9, "precision {precision}");
    }

    #[test]
    fn healthy_patients_stay_in_range() {
        let v = VitalsStream::generate(&HealthParams {
            episode_fraction: 0.0,
            ..Default::default()
        });
        assert!(v.episodes.is_empty());
        assert!(v.detect(110.0, 5).is_empty());
        let max = v.records.iter().map(|r| r.value).fold(0.0, f64::max);
        assert!(max < 110.0, "healthy max HR {max}");
    }

    #[test]
    fn record_volume_matches_schedule() {
        let params = HealthParams {
            patients: 10,
            duration: SimDuration::from_secs(30),
            ..Default::default()
        };
        let v = VitalsStream::generate(&params);
        assert_eq!(v.records.len(), 10 * 30);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = VitalsStream::generate(&HealthParams::default());
        let b = VitalsStream::generate(&HealthParams::default());
        assert_eq!(a.records.len(), b.records.len());
        assert_eq!(a.episodes, b.episodes);
        assert_eq!(a.records[0], b.records[0]);
    }
}
