//! Table III reproduction: phone power consumption per sensor setting,
//! plus the derived battery-life and Goertzel-vs-FFT comparisons (§IV-D):
//! operation counts for N ∈ {240, 480, 960} × M ∈ {2, 7} and the band
//! count at which the FFT becomes cheaper.
//!
//! Run with `cargo run --release -p busprobe-bench --bin table3_power`.

use busprobe_mobile::{fft, Goertzel, PhoneModel, PowerModel, SensorConfig};

/// Audio window lengths in samples at 8 kHz: 30, 60 and 120 ms.
const WINDOWS: [usize; 3] = [240, 480, 960];

fn main() {
    println!("# Table III: power consumption comparison (mW), 10-minute runs, screen off");
    println!();
    println!(
        "{:>28} {:>15} {:>12}",
        "sensor setting", "HTC Sensation", "Nexus One"
    );

    let rows: [(&str, SensorConfig); 6] = [
        ("No sensors", SensorConfig::default()),
        (
            "Cellular 1 Hz",
            SensorConfig {
                cellular: true,
                ..Default::default()
            },
        ),
        (
            "GPS",
            SensorConfig {
                gps: true,
                ..Default::default()
            },
        ),
        ("Cellular+Mic (Goertzel)", SensorConfig::busprobe_app()),
        (
            "Cellular+Mic (FFT)",
            SensorConfig {
                cellular: true,
                mic_fft: true,
                ..Default::default()
            },
        ),
        ("GPS+Mic (Goertzel)", SensorConfig::gps_tracking()),
    ];

    let htc = PowerModel::for_phone(PhoneModel::HtcSensation);
    let nexus = PowerModel::for_phone(PhoneModel::NexusOne);
    for (label, config) in rows {
        println!(
            "{label:>28} {:>15.0} {:>12.0}",
            htc.power_mw(config),
            nexus.power_mw(config)
        );
    }

    println!();
    println!("# derived: battery life on a 5600 mWh pack (HTC Sensation)");
    for (label, config) in [
        ("busprobe app (cell+mic)", SensorConfig::busprobe_app()),
        ("GPS tracking variant", SensorConfig::gps_tracking()),
    ] {
        println!("{label:>28}: {:>6.1} h", htc.battery_life_h(config, 5600.0));
    }

    println!();
    println!("# Goertzel vs FFT cost per 30 ms window (240 samples @ 8 kHz, 2 beep bands)");
    println!(
        "  goertzel ops: {:>8}   fft ops: {:>8}   ratio: {:.1}x",
        Goertzel::ops(240, 2),
        fft::ops(240),
        fft::ops(240) as f64 / Goertzel::ops(240, 2) as f64
    );
    println!(
        "  power saving from Goertzel: {:.0} mW (paper: ~6 mW at 8 kHz sampling)",
        htc.power_mw(SensorConfig {
            cellular: true,
            mic_fft: true,
            ..Default::default()
        }) - htc.power_mw(SensorConfig::busprobe_app())
    );

    println!();
    println!("# §IV-D op counts per window: Goertzel O(K_g·N·M) vs FFT O(K_f·N·log N), 8 kHz");
    println!("# (M = 2: the beep bands only; M = 7: the app's 2 beep + 5 reference bands)");
    println!(
        "{:>6} {:>8} {:>4} {:>14} {:>10} {:>14}",
        "N", "window", "M", "goertzel ops", "fft ops", "fft/goertzel"
    );
    for n in WINDOWS {
        for m in [2, 7] {
            println!(
                "{n:>6} {:>5} ms {m:>4} {:>14} {:>10} {:>13.1}x",
                n / 8,
                Goertzel::ops(n, m),
                fft::ops(n),
                fft::ops(n) as f64 / Goertzel::ops(n, m) as f64
            );
        }
    }
    println!("# crossover M*: the fewest bands at which the FFT is cheaper");
    for n in WINDOWS {
        let crossover = (1..)
            .find(|&m| fft::ops(n) < Goertzel::ops(n, m))
            .expect("Goertzel cost grows without bound in M");
        println!("  N = {n:>4}: M* = {crossover}");
    }
}
