package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"eigenpro"
)

// runTrainJob implements the train subcommand: submit the training run to
// the async job manager and watch its progress — the same lifecycle the
// HTTP /train endpoint drives, from the command line. The job can be
// interrupted with -cancel-after-epoch and resumed, demonstrating the
// checkpoint path produces the identical model.
func runTrainJob(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	dataset := fs.String("dataset", "mnist", "dataset: mnist, cifar10, svhn, timit, susy, imagenet")
	n := fs.Int("n", 2000, "number of samples to generate")
	kernelName := fs.String("kernel", "gaussian", "kernel family: gaussian, laplacian, cauchy, matern32, matern52")
	sigma := fs.Float64("sigma", 5, "kernel bandwidth")
	epochs := fs.Int("epochs", 10, "maximum training epochs")
	method := fs.String("method", "eigenpro2", "optimizer: eigenpro2, eigenpro1, sgd")
	seed := fs.Int64("seed", 1, "random seed")
	name := fs.String("name", "default", "model name for the job")
	savePath := fs.String("save", "", "write the trained model (gob) to this path")
	cancelAfter := fs.Int("cancel-after-epoch", 0, "cancel the job once this many epochs completed, then resume (demonstrates checkpoint/resume)")
	poll := fs.Duration("poll", 50*time.Millisecond, "status poll interval")
	fs.Parse(args)

	ds, err := eigenpro.DatasetByName(*dataset, *n, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	kern, err := eigenpro.KernelByName(*kernelName, *sigma)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	m, err := eigenpro.MethodByName(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	train, test := ds.Split(0.8, *seed)
	fmt.Printf("dataset %s: %d train / %d test, d=%d, %d classes\n",
		ds.Name, train.N(), test.N(), ds.Dim(), ds.Classes)

	mgr := eigenpro.NewTrainingManager(eigenpro.TrainingConfig{Workers: 1})
	defer mgr.Close()

	id, err := eigenpro.SubmitTraining(mgr, eigenpro.TrainingSpec{
		Name: *name,
		Config: eigenpro.Config{
			Kernel: kern, Method: m, Epochs: *epochs, Seed: *seed,
			ValX: test.X, ValLabels: test.Labels,
		},
		X: train.X,
		Y: train.Y,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "submit: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("submitted %s (model %q); watching\n", id, *name)

	lastEpoch := 0
	cancelled := false
	for {
		info, ok := eigenpro.JobStatus(mgr, id)
		if !ok {
			fmt.Fprintf(os.Stderr, "job %s vanished\n", id)
			os.Exit(1)
		}
		if info.Epoch > lastEpoch {
			fmt.Printf("  epoch %2d/%d: train mse %.5f  val err %.2f%%  sim time %v\n",
				info.Epoch, info.Epochs, info.TrainMSE, 100*info.ValError, info.SimTime.Round(time.Microsecond))
			lastEpoch = info.Epoch
		}
		if *cancelAfter > 0 && !cancelled && info.Epoch >= *cancelAfter && info.State == eigenpro.JobRunning {
			fmt.Printf("cancelling at epoch boundary %d (checkpoint-on-cancel)...\n", info.Epoch)
			mgr.Cancel(id)
			cancelled = true
		}
		if info.State == eigenpro.JobCancelled {
			fmt.Printf("job parked: checkpointed=%v; resuming\n", info.Checkpointed)
			if err := mgr.Resume(id); err != nil {
				fmt.Fprintf(os.Stderr, "resume: %v\n", err)
				os.Exit(1)
			}
		}
		if info.State == eigenpro.JobDone {
			fmt.Printf("done: %d epochs, %d iters, sim time %v (resumes: %d)\n",
				info.Epoch, info.Iters, info.SimTime.Round(time.Microsecond), info.Resumes)
			break
		}
		if info.State == eigenpro.JobFailed {
			fmt.Fprintf(os.Stderr, "job failed: %s\n", info.Error)
			os.Exit(1)
		}
		time.Sleep(*poll)
	}

	model, ok := mgr.Model(id)
	if !ok {
		fmt.Fprintln(os.Stderr, "no model retained")
		os.Exit(1)
	}
	testErr := eigenpro.ClassificationError(model.Predict(test.X), test.Labels)
	fmt.Printf("final test error %.2f%%\n", 100*testErr)

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *savePath, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := eigenpro.SaveModel(f, model); err != nil {
			fmt.Fprintf(os.Stderr, "save model: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("model written to %s\n", *savePath)
	}
}
