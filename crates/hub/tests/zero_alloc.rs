//! Steady-state allocation audit of the hub hot path.
//!
//! The interpreter promises that once a program is loaded (and the wake
//! buffer has grown to a batch's wake count), feeding samples performs no
//! heap allocation at all — the property that makes the hot path
//! cache-friendly and its latency flat. These tests pin it with a
//! counting global allocator.
//!
//! The count is per thread, so each test sees only its own allocations
//! and the file gives the same result under the default parallel test
//! runner. Lives in its own integration-test binary because
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use sidewinder_hub::runtime::{ChannelRates, HubRuntime, HubRuntime32};
use sidewinder_hub::{compile_image, CounterSink, McuCore, NullSink, Probe, Sample};
use sidewinder_ir::Program;
use sidewinder_sensors::SensorChannel;

struct CountingAllocator;

thread_local! {
    /// Allocations made by the current thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count into.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations this thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn fixture(text: &str) -> Program {
    text.parse().unwrap()
}

fn steps() -> Program {
    fixture(include_str!("../../ir/tests/fixtures/steps.swir"))
}

fn music() -> Program {
    fixture(include_str!("../../ir/tests/fixtures/music.swir"))
}

/// The steps accelerometer drive: walking bursts (outside the ±2 band,
/// raising wakes) alternating with rest.
fn step_signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| if (i / 40) % 2 == 0 { 3.5 } else { 0.2 })
        .collect()
}

/// A tone whose windows pass the music condition's variance and ZCR
/// gates.
fn music_signal(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.785).sin()).collect()
}

/// Replays `samples` twice through `hub` and returns the second batch's
/// allocation count and wake count. The first batch grows the wake
/// buffer to the batch's wake count; everything else was sized at load.
fn steady_state<S: Probe, P: Sample>(
    hub: &mut HubRuntime<S, P>,
    channel: SensorChannel,
    samples: &[f64],
) -> (u64, usize) {
    hub.push_samples(channel, samples).unwrap();
    let before = allocations();
    let wakes = hub.push_samples(channel, samples).unwrap().len();
    (allocations() - before, wakes)
}

#[test]
fn steps_steady_state_performs_zero_allocations() {
    let mut hub = HubRuntime::load(&steps(), &ChannelRates::default()).unwrap();
    let samples = step_signal(8192);
    let (allocated, wakes) = steady_state(&mut hub, SensorChannel::AccX, &samples);
    assert!(wakes > 0, "steady-state batch must still raise wakes");
    assert_eq!(
        allocated,
        0,
        "steady-state push_samples allocated {allocated} times over {} samples",
        samples.len()
    );
}

/// The zero-allocation promise holds with observability enabled too: a
/// preallocated [`CounterSink`] tallies every execution, wake, and
/// timing observation into fixed slots, so the instrumented hot path
/// still never touches the allocator.
#[test]
fn steps_with_counters_enabled_performs_zero_allocations() {
    let program = steps();
    let mut hub: HubRuntime<_> = HubRuntime::load_generic(
        &program,
        &ChannelRates::default(),
        CounterSink::with_nodes(program.nodes().count()),
    )
    .unwrap();
    let samples = step_signal(8192);
    let (allocated, wakes) = steady_state(&mut hub, SensorChannel::AccX, &samples);
    assert!(wakes > 0, "steady-state batch must still raise wakes");
    assert_eq!(
        allocated,
        0,
        "counter-instrumented push_samples allocated {allocated} times over {} samples",
        samples.len()
    );
    // The sink really was recording while the allocator stayed idle.
    let sink = hub.sink();
    assert_eq!(sink.nodes()[0].executions, 2 * samples.len() as u64);
    assert_eq!(sink.wakes, hub.wake_count());
    assert!(sink.total_timing().count() > 0);
}

/// The windowed music condition runs its per-window work (variance,
/// the ZCR sub-window rates) in arenas carved at load, so it is as
/// allocation-free as the scalar chain — at both precisions and with
/// counters on.
#[test]
fn music_steady_state_performs_zero_allocations() {
    fn check<S: Probe, P: Sample>(mut hub: HubRuntime<S, P>, label: &str) {
        let samples = music_signal(8192);
        let (allocated, wakes) = steady_state(&mut hub, SensorChannel::Mic, &samples);
        assert!(wakes > 0, "{label}: the tone must wake the music condition");
        assert_eq!(
            allocated, 0,
            "{label}: music batch allocated {allocated} times"
        );
    }
    let program = music();
    let rates = ChannelRates::default();
    check(HubRuntime::load(&program, &rates).unwrap(), "f64");
    check(
        HubRuntime32::load_generic(&program, &rates, NullSink).unwrap(),
        "f32",
    );
    check(
        HubRuntime::<_, f64>::load_generic(&program, &rates, CounterSink::with_nodes(8)).unwrap(),
        "f64 with counters",
    );
    check(
        HubRuntime::<_, f32>::load_generic(&program, &rates, CounterSink::with_nodes(8)).unwrap(),
        "f32 with counters",
    );
}

/// Frames of co-sampled channels run without touching the allocator: a
/// two-axis program pushed as AccX + AccY frames, by block with the
/// probe off and one pass per sample with counters on.
#[test]
fn two_channel_frames_perform_zero_allocations() {
    fn check<S: Probe>(mut hub: HubRuntime<S>, label: &str) {
        let x = step_signal(8192);
        let y: Vec<f64> = x.iter().map(|v| -v).collect();
        let channels = [SensorChannel::AccX, SensorChannel::AccY];
        let columns = [x.as_slice(), y.as_slice()];
        hub.push_frames(&channels, &columns, |_, _| {}).unwrap();
        let before = allocations();
        let mut wakes = [0u64; 2];
        hub.push_frames(&channels, &columns, |m, _| wakes[m] += 1)
            .unwrap();
        let allocated = allocations() - before;
        assert!(
            wakes[0] > 0 && wakes[1] > 0,
            "{label}: both axes must wake, got {wakes:?}"
        );
        assert_eq!(allocated, 0, "{label}: frames allocated {allocated} times");
    }
    let program = fixture(
        "ACC_X -> movingAvg(id=1, params={3});
         ACC_Y -> movingAvg(id=2, params={3});
         1 -> minThreshold(id=3, params={2});
         2 -> maxThreshold(id=4, params={-2});
         3,4 -> anyOf(id=5);
         5 -> OUT;",
    );
    let rates = ChannelRates::default();
    check(HubRuntime::load(&program, &rates).unwrap(), "null sink");
    check(
        HubRuntime::load_generic(&program, &rates, CounterSink::with_nodes(5)).unwrap(),
        "counters",
    );
}

/// The program fleet ingest serves for Steps, Transitions and Headbutts,
/// pushed as AccX + AccY frames with the probe off, runs by block: its
/// stream chains run over the block's rows in buffers carved at load,
/// and the sliding window fills by slice. At either precision, a steady
/// frame push never touches the allocator.
#[test]
fn fleet_served_program_frames_perform_zero_allocations() {
    fn check<P: Sample>(mut hub: HubRuntime<NullSink, P>, label: &str) {
        let x = step_signal(8192);
        let y: Vec<f64> = x.iter().map(|v| -v).collect();
        let channels = [SensorChannel::AccX, SensorChannel::AccY];
        let columns = [x.as_slice(), y.as_slice()];
        hub.push_frames(&channels, &columns, |_, _| {}).unwrap();
        let before = allocations();
        let mut wakes = [0u64; 2];
        hub.push_frames(&channels, &columns, |m, _| wakes[m] += 1)
            .unwrap();
        let allocated = allocations() - before;
        assert!(
            wakes[0] > 0 && wakes[1] > 0,
            "{label}: both axes must wake, got {wakes:?}"
        );
        assert_eq!(allocated, 0, "{label}: frames allocated {allocated} times");
    }
    let program = fixture(
        "ACC_X -> movingAvg(id=1, params={5});
         1 -> outsideThreshold(id=2, params={-2, 2});
         ACC_Y -> window(id=3, params={64, 32, 0});
         3 -> peakToPeak(id=4);
         4 -> minThreshold(id=5, params={3});
         ACC_Y -> movingAvg(id=6, params={3});
         6 -> maxThreshold(id=7, params={-3});
         2,5,7 -> anyOf(id=8);
         8 -> OUT;",
    );
    let rates = ChannelRates::default();
    check(HubRuntime::load(&program, &rates).unwrap(), "f64");
    check(
        HubRuntime32::load_generic(&program, &rates, NullSink).unwrap(),
        "f32",
    );
}

/// The music condition reads MIC through windows only, so with the probe
/// off its samples fill the rings by slice; that path is as
/// allocation-free as the pass, whether MIC is pushed alone or framed
/// with a channel the program does not read.
#[test]
fn music_window_fill_performs_zero_allocations() {
    let mut hub = HubRuntime::load(&music(), &ChannelRates::default()).unwrap();
    let mic = music_signal(8192);
    let idle = vec![0.0; mic.len()];
    let channels = [SensorChannel::Mic, SensorChannel::AccX];
    let columns = [mic.as_slice(), idle.as_slice()];
    hub.push_frames(&channels, &columns, |_, _| {}).unwrap();
    // Grows the wake buffer `push_samples` returns.
    hub.push_samples(SensorChannel::Mic, &mic).unwrap();
    let before = allocations();
    let mut wakes = 0u64;
    hub.push_frames(&channels, &columns, |m, _| {
        assert_eq!(m, 0, "only MIC feeds the music condition");
        wakes += 1;
    })
    .unwrap();
    hub.push_samples(SensorChannel::Mic, &mic).unwrap();
    let allocated = allocations() - before;
    assert!(wakes > 0, "the tone must wake the music condition");
    assert_eq!(allocated, 0, "window fill allocated {allocated} times");
}

/// The precision parameter does not change the allocation story on the
/// scalar steps chain either.
#[test]
fn f32_steps_steady_state_performs_zero_allocations() {
    let mut hub = HubRuntime32::load_generic(&steps(), &ChannelRates::default(), NullSink).unwrap();
    let samples = step_signal(8192);
    let (allocated, wakes) = steady_state(&mut hub, SensorChannel::AccX, &samples);
    assert!(wakes > 0, "f32 steady-state batch must still raise wakes");
    assert_eq!(
        allocated,
        0,
        "f32 steps steady state allocated {allocated} times over {} samples",
        samples.len()
    );
}

/// The firmware core, held in a `static` as on the hub: it never
/// allocates, from `load` through the entire replay, with no warm-up
/// exemption. Only compiling the image — a host-side step — may.
static CORE: Mutex<McuCore<f64, 16_384>> = Mutex::new(McuCore::new());

#[test]
fn mcu_core_performs_zero_allocations_total() {
    let rates = ChannelRates::default();
    let steps_image = compile_image(&steps(), &rates).unwrap();
    let music_image = compile_image(&music(), &rates).unwrap();
    let step_samples = step_signal(8192);
    let music_samples = music_signal(8192);
    let mut core = CORE.lock().unwrap();

    let before = allocations();
    core.load(&steps_image).unwrap();
    let mut wakes = 0u64;
    core.push_samples(
        SensorChannel::AccX.index() as u8,
        &step_samples,
        &mut |_| wakes += 1,
    )
    .unwrap();
    assert!(wakes > 0, "steps must wake on the core");
    core.load(&music_image).unwrap();
    core.push_samples(
        SensorChannel::Mic.index() as u8,
        &music_samples,
        &mut |_| {},
    )
    .unwrap();
    let allocated = allocations() - before;
    assert_eq!(
        allocated, 0,
        "mcu core allocated {allocated} times across load + 16384 samples"
    );
}
